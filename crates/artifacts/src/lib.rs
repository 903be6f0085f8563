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
//! An artifact file is a header line followed by a binary payload:
//!
//! ```text
//! {"magic":"rqp-artifact","version":3,"checksum":"<16-hex-digit 8-lane FNV-1a>","payload_len":N}
//! <payload: exactly N bytes>
//! ```
//!
//! The header is a single JSON line. Its checksum is [`checksum64`]
//! (8-lane FNV-1a 64) over the raw payload bytes, hex-encoded — a string,
//! not a JSON number, because the vendored `serde` shim carries numbers
//! as `f64` and u64 checksums exceed 2^53. The payload is, all integers
//! and floats little-endian:
//!
//! | section | bytes |
//! |---|---|
//! | `meta_len` | `u64` |
//! | meta: compact JSON of query, ratio, lambda, grid, plan pool, contours, bouquet, ρ_red, penalty | `meta_len` |
//! | `surface.opt_cost` | `f64` × cells |
//! | `surface.opt_plan` | `u32` × cells |
//! | matrix, plan-major | `f64` × plans × cells |
//!
//! where cells is the grid's size and plans the pool's, both from meta.
//! This is the only format: the store writes one kind of file and
//! [`CompiledArtifact::from_bytes`] is its one decoder. Loading validates
//! magic → version → length → checksum → meta → section lengths →
//! structural invariants, and every failure surfaces as a typed
//! [`ArtifactError`]; nothing in the load path panics on bad input. A
//! file of any other version — an older build's JSON-payload version-1
//! file or its contour-only version-2 file — is an
//! [`ArtifactError::UnsupportedVersion`]: `compile_or_load` recompiles
//! over it (`Cold { Corrupt }`) and `rqp serve --recover` quarantines it.
//!
//! Floats round-trip bit-exactly: the sections hold their IEEE-754 bits
//! and the `serde_json` shim renders meta's floats with Rust's
//! shortest-round-trip `Display`, so a loaded artifact evaluates
//! bit-identically to the freshly compiled one (property-tested in
//! `tests/artifact_roundtrip.rs` at the workspace root).

use rqp_common::MultiGrid;
use rqp_ess::anorexic::{reduce_all_with, ReducedContour};
use rqp_ess::{ContourSet, EssSurface};
use rqp_faults::{crash, FaultPlan, FaultSite};
use rqp_optimizer::{CostMatrix, Optimizer, PlanPool, QuerySpec};
use serde::{Deserialize, Serialize, Value};
use std::io::{BufRead, BufReader, Read as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Magic string identifying an rqp artifact file.
pub const MAGIC: &str = "rqp-artifact";

/// On-disk format version of [`CompiledArtifact`] payloads. Bump on any
/// incompatible change to its serialized shape.
pub const FORMAT_VERSION: u32 = 3;

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

/// Parses a header line and checks its magic and format version.
fn parse_header(line: &[u8]) -> Result<Header, ArtifactError> {
    let text = std::str::from_utf8(line).map_err(|e| ArtifactError::BadHeader(e.to_string()))?;
    let header: Header =
        serde_json::from_str(text).map_err(|e| ArtifactError::BadHeader(e.to_string()))?;
    if header.magic != MAGIC {
        return Err(ArtifactError::BadMagic(header.magic));
    }
    if header.version != FORMAT_VERSION {
        return Err(ArtifactError::UnsupportedVersion {
            found: header.version,
            supported: FORMAT_VERSION,
        });
    }
    Ok(header)
}

/// Validates the envelope — header shape, magic, format version, payload
/// length, checksum — and returns the payload. Never panics on malformed
/// input.
fn open_envelope(bytes: &[u8]) -> Result<&[u8], ArtifactError> {
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or(ArtifactError::Truncated {
            expected: 1,
            found: 0,
        })?;
    let header = parse_header(&bytes[..nl])?;
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
    Ok(payload)
}

/// The payload's JSON section: everything but the three cell arrays.
#[derive(Deserialize)]
struct Meta {
    query: QuerySpec,
    ratio: f64,
    lambda: f64,
    grid: MultiGrid,
    pool: PlanPool,
    contours: ContourSet,
    bouquet: Vec<ReducedContour>,
    rho_red: usize,
    penalty: Option<PenaltySummary>,
}

/// Splits `len` bytes off the front of `rest`.
fn take<'a>(rest: &mut &'a [u8], len: usize) -> Result<&'a [u8], ArtifactError> {
    if rest.len() < len {
        return Err(ArtifactError::Decode(format!(
            "section of {len} bytes overruns the payload ({} left)",
            rest.len()
        )));
    }
    let (head, tail) = rest.split_at(len);
    *rest = tail;
    Ok(head)
}

/// Little-endian `N`-byte words of `bytes`, in order.
fn words<const N: usize>(bytes: &[u8]) -> impl Iterator<Item = [u8; N]> + '_ {
    (bytes.chunks_exact(N)).map(|w| w.try_into().expect("chunks_exact yields N bytes"))
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
#[derive(Debug, Clone)]
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
    /// at compile time.
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

    /// Serializes to the on-disk byte format (header line + payload) in
    /// one buffer of the final size: the payload is written behind the
    /// room the header needs, checksummed in place, and the header
    /// written last.
    pub fn to_bytes(&self) -> Vec<u8> {
        let members = [
            ("query", self.query.to_value()),
            ("ratio", self.ratio.to_value()),
            ("lambda", self.lambda.to_value()),
            ("grid", self.surface.grid().to_value()),
            ("pool", self.surface.pool().to_value()),
            ("contours", self.contours.to_value()),
            ("bouquet", self.bouquet.to_value()),
            ("rho_red", self.rho_red.to_value()),
            ("penalty", self.penalty.to_value()),
        ];
        let meta = Value::Object(members.map(|(k, v)| (k.to_string(), v)).into());
        let meta = serde_json::to_string(&meta).expect("artifact meta serializes");
        let (costs, plans) = (self.surface.opt_costs(), self.surface.opt_plans());
        let payload_len = 8 + meta.len() + 12 * costs.len() + 8 * self.matrix.len();
        let header_line = |checksum: u64| {
            let header = Header {
                magic: MAGIC.into(),
                version: FORMAT_VERSION,
                checksum: format!("{checksum:016x}"),
                payload_len,
            };
            serde_json::to_string(&header).expect("header serializes") + "\n"
        };
        let start = header_line(0).len();
        let mut out = Vec::with_capacity(start + payload_len);
        out.resize(start, 0);
        out.extend((meta.len() as u64).to_le_bytes());
        out.extend(meta.as_bytes());
        out.extend(costs.iter().flat_map(|c| c.to_le_bytes()));
        let plan_id = |&p: &usize| u32::try_from(p).expect("a pool holds fewer than 2^32 plans");
        out.extend(plans.iter().flat_map(|p| plan_id(p).to_le_bytes()));
        out.extend(self.matrix.cells().iter().flat_map(|c| c.to_le_bytes()));
        let header = header_line(checksum64(&out[start..]));
        out[..start].copy_from_slice(header.as_bytes());
        out
    }

    /// Parses and validates the on-disk byte format. Checks, in order:
    /// header shape, magic, format version, payload length, checksum,
    /// meta decode, section lengths against meta, and structural
    /// invariants. Never panics on malformed input; a file of any other
    /// format version is an [`ArtifactError::UnsupportedVersion`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let mut rest = open_envelope(bytes)?;
        let meta_len = u64::from_le_bytes(take(&mut rest, 8)?.try_into().expect("8 bytes"));
        let meta = take(&mut rest, usize::try_from(meta_len).unwrap_or(usize::MAX))?;
        let meta: Meta = std::str::from_utf8(meta)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
            .map_err(ArtifactError::Decode)?;
        let (cells, nplans) = (meta.grid.len(), meta.pool.len());
        let sections = (cells.checked_mul(12))
            .zip(nplans.checked_mul(cells).and_then(|n| n.checked_mul(8)))
            .and_then(|(surface, matrix)| surface.checked_add(matrix));
        if sections != Some(rest.len()) {
            return Err(ArtifactError::Decode(format!(
                "{} section bytes for {cells} cells and {nplans} plans",
                rest.len()
            )));
        }
        let opt_cost = words(take(&mut rest, 8 * cells)?).map(f64::from_le_bytes);
        let opt_plan = words(take(&mut rest, 4 * cells)?).map(|w| u32::from_le_bytes(w) as usize);
        let surface =
            EssSurface::from_parts(meta.grid, opt_cost.collect(), opt_plan.collect(), meta.pool)
                .map_err(|e| ArtifactError::Invalid(e.to_string()))?;
        let matrix =
            CostMatrix::from_cells(nplans, cells, words(rest).map(f64::from_le_bytes).collect())
                .ok_or_else(|| {
                    ArtifactError::Decode("matrix section does not fit its shape".into())
                })?;
        let artifact = CompiledArtifact {
            query: meta.query,
            ratio: meta.ratio,
            lambda: meta.lambda,
            surface,
            contours: meta.contours,
            bouquet: meta.bouquet,
            rho_red: meta.rho_red,
            matrix,
            penalty: meta.penalty,
        };
        artifact.check()?;
        Ok(artifact)
    }

    /// Validates cross-component invariants (the surface's own are
    /// checked as it is assembled, by [`EssSurface::from_parts`]).
    fn check(&self) -> Result<(), ArtifactError> {
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

    /// [`load`](Self::load) under an optional fault plan: an injected
    /// `store.load` fault surfaces as an interrupted-read I/O error
    /// before the file is touched.
    pub fn load_with(path: &Path, faults: Option<&FaultPlan>) -> Result<Self, ArtifactError> {
        if faults.is_some_and(|plan| plan.should_inject(FaultSite::StoreLoad)) {
            return Err(ArtifactError::Io(format!(
                "injected read fault at {} (Interrupted)",
                path.display()
            )));
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
/// point of failure. `faults` is threaded into the underlying load and
/// save (see [`CompiledArtifact::load_with`] /
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
}

impl ArtifactStore {
    /// Opens (without touching the filesystem) a store rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            faults: None,
        }
    }

    /// Attaches a fault plan to every load/save this store performs.
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = Some(faults);
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

    /// [`compile_or_load_with`] keyed by the optimizer's query name,
    /// under the store's fault plan.
    pub fn compile_or_load(
        &self,
        opt: &Optimizer<'_>,
        grid: &MultiGrid,
        ratio: f64,
        lambda: f64,
        threads: usize,
    ) -> Result<(CompiledArtifact, Provenance), ArtifactError> {
        rqp_obs::span!("artifacts.compile_or_load");
        compile_or_load_with(
            &self.path_for(&opt.query().name),
            opt,
            grid,
            ratio,
            lambda,
            threads,
            self.faults.as_deref(),
        )
    }

    /// Loads the artifact for query `name` — the cache-fill path the
    /// serving LRU uses on a miss. Honors the store's fault plan
    /// (injected `store.load` errors) so cold loads participate in fault
    /// injection.
    pub fn load_named(&self, name: &str) -> Result<CompiledArtifact, ArtifactError> {
        rqp_obs::span!("artifacts.load_named");
        CompiledArtifact::load_with(&self.path_for(name), self.faults.as_deref())
    }

    /// Names of the artifacts this build can load, sorted: the files
    /// ending in `.rqpa` whose first line is a header with [`MAGIC`] and
    /// [`FORMAT_VERSION`]. Only that line of each file is read.
    pub fn list(&self) -> Result<Vec<String>, ArtifactError> {
        let mut names = Vec::new();
        let entries = match std::fs::read_dir(&self.root) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(names),
            Err(e) => return Err(e.into()),
        };
        for entry in entries {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("rqpa") && has_header(&path) {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

/// True if the file at `path` starts with a header line of this build's
/// format. Reads at most the first KiB.
fn has_header(path: &Path) -> bool {
    let mut line = Vec::new();
    std::fs::File::open(path)
        .and_then(|f| BufReader::new(f.take(1024)).read_until(b'\n', &mut line))
        .is_ok_and(|_| line.pop() == Some(b'\n') && parse_header(&line).is_ok())
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

    /// `payload` in a well-formed envelope of format `version`: what a
    /// build of that version wrote, or a doctored payload that still
    /// passes the checksum.
    fn seal_envelope(version: u32, payload: &[u8]) -> Vec<u8> {
        let header = Header {
            magic: MAGIC.into(),
            version,
            checksum: format!("{:016x}", checksum64(payload)),
            payload_len: payload.len(),
        };
        let mut out = serde_json::to_string(&header)
            .expect("header serializes")
            .into_bytes();
        out.push(b'\n');
        out.extend_from_slice(payload);
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

    /// A reload re-encodes to the same bytes, with and without a penalty
    /// summary (whose strings need escaping in meta).
    #[test]
    fn reload_reencodes_byte_equal() {
        let (cat, q, grid) = compile_fixture();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let plain = CompiledArtifact::compile(&opt, grid, 2.0, 0.2, 1);
        let with_penalty = plain.clone().with_penalty(PenaltySummary {
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
        for art in [plain, with_penalty] {
            let bytes = art.to_bytes();
            let back = CompiledArtifact::from_bytes(&bytes).unwrap();
            assert_eq!(back.penalty, art.penalty);
            assert_eq!(back.matrix, art.matrix);
            assert_eq!(back.to_bytes(), bytes);
        }
    }

    /// Payloads doctored behind a valid checksum: every length is checked
    /// exactly against meta, and a plan id outside the pool is refused.
    #[test]
    fn hostile_payloads_yield_typed_errors() {
        let (cat, q, grid) = compile_fixture();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let art = CompiledArtifact::compile(&opt, grid, 2.0, 0.2, 1);
        let bytes = art.to_bytes();
        let payload = &bytes[bytes.iter().position(|&b| b == b'\n').unwrap() + 1..];
        let decode =
            |payload: &[u8]| CompiledArtifact::from_bytes(&seal_envelope(FORMAT_VERSION, payload));

        let short = &payload[..payload.len() - 8];
        assert!(matches!(decode(short), Err(ArtifactError::Decode(_))));

        let mut overlong_meta = payload.to_vec();
        overlong_meta[..8].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        assert!(matches!(
            decode(&overlong_meta),
            Err(ArtifactError::Decode(_))
        ));
        overlong_meta[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode(&overlong_meta),
            Err(ArtifactError::Decode(_))
        ));

        let mut trailing = payload.to_vec();
        trailing.extend_from_slice(&[0; 3]);
        assert!(matches!(decode(&trailing), Err(ArtifactError::Decode(_))));

        let meta_len = u64::from_le_bytes(payload[..8].try_into().unwrap()) as usize;
        let plans_at = 8 + meta_len + 8 * art.surface.len();
        let mut bad_plan = payload.to_vec();
        let nplans = art.surface.posp_size() as u32;
        bad_plan[plans_at..plans_at + 4].copy_from_slice(&nplans.to_le_bytes());
        match decode(&bad_plan) {
            Err(ArtifactError::Invalid(msg)) => assert!(msg.contains("plan id"), "{msg}"),
            other => panic!("expected Invalid for an out-of-pool plan id, got {other:?}"),
        }

        // A version-1 file: its payload was the artifact as one JSON object.
        let v1 = seal_envelope(1, br#"{"query":{},"ratio":2,"matrix":{"cells_hex":""}}"#);
        assert!(matches!(
            CompiledArtifact::from_bytes(&v1),
            Err(ArtifactError::UnsupportedVersion {
                found: 1,
                supported: 3
            })
        ));
    }

    #[test]
    fn approx_bytes_and_store_load_named() {
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
        let loaded = store.load_named("star2").unwrap();
        assert_eq!(loaded.query.name, "star2");
        assert_eq!(loaded.approx_bytes(), art.approx_bytes());
        match store.load_named("missing") {
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

        let (_, prov) = compile_or_load_with(&path, &opt, &grid, 2.0, 0.2, 1, None).unwrap();
        assert!(!prov.is_warm(), "first call must compile");
        let (art, prov) = compile_or_load_with(&path, &opt, &grid, 2.0, 0.2, 1, None).unwrap();
        assert!(prov.is_warm(), "second call must load");
        assert!(art.matches(&opt, &grid, 2.0, 0.2));

        // A different lambda is stale: recompiles rather than trusting.
        let (_, prov) = compile_or_load_with(&path, &opt, &grid, 2.0, 0.3, 1, None).unwrap();
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
        let bumped = header_text.replace("\"version\":3", "\"version\":99");
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

    /// A contour-only version-2 file, as older builds wrote: a well-formed
    /// envelope whose payload no decoder of this build reads. Decoder and
    /// store refuse it with a typed error, never a panic.
    #[test]
    fn dense_reader_rejects_sparse_files_with_typed_error() {
        let payload = r#"{"cell_idx":[0,3],"cell_costs":"3ff0000000000000","matrix":{}}"#;
        let bytes = seal_envelope(2, payload.as_bytes());
        let refused = |r: Result<CompiledArtifact, ArtifactError>| match r {
            Err(ArtifactError::UnsupportedVersion {
                found: 2,
                supported: 3,
            }) => {}
            other => panic!("expected UnsupportedVersion {{ found: 2 }}, got {other:?}"),
        };
        refused(CompiledArtifact::from_bytes(&bytes));

        let root = std::env::temp_dir().join(format!("rqp-store-v2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let store = ArtifactStore::new(&root);
        std::fs::write(store.path_for("star2.lazy"), &bytes).unwrap();
        refused(store.load_named("star2.lazy"));
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
        // Files this build cannot load are not listed.
        std::fs::write(store.path_for("old"), seal_envelope(1, b"{}")).unwrap();
        std::fs::write(store.path_for("junk"), b"no header line").unwrap();
        assert_eq!(store.list().unwrap(), vec!["star2".to_string()]);
        let (_, prov) = store.compile_or_load(&opt, &grid, 2.0, 0.2, 1).unwrap();
        assert!(prov.is_warm());
        let _ = std::fs::remove_dir_all(&root);
    }
}
