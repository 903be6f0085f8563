//! The Error-prone Selectivity Space (ESS) machinery.
//!
//! Implements §2 of the paper: the discretized `[0,1]^D` grid over the
//! error-prone predicates, the **optimal cost surface** (OCS) obtained by
//! sweeping the optimizer over the grid ([`surface::EssSurface`]), views of
//! the space with learnt dimensions pinned ([`view::EssView`]), the
//! cost-doubling **iso-cost contours** and their frontier locations
//! ([`contours`]), the **anorexic reduction** used by the PlanBouquet
//! baseline ([`anorexic`]), the **contour / predicate-set alignment**
//! analysis that powers AlignedBound and reproduces Table 2
//! ([`alignment`]), and the **lazy sparse surface** that materializes
//! `optimize_at` cells on demand behind the [`lazy::SurfaceAccess`]
//! trait ([`lazy`]).
//!
//! ```
//! use rqp_catalog::tpcds;
//! use rqp_common::MultiGrid;
//! use rqp_ess::{ContourSet, EssSurface, EssView};
//! use rqp_optimizer::{CostParams, EnumerationMode, Optimizer, Predicate, PredicateKind, QuerySpec};
//!
//! let catalog = tpcds::catalog_sf100();
//! let query = QuerySpec {
//!     name: "demo".into(),
//!     relations: vec![
//!         catalog.table_id("catalog_returns").unwrap(),
//!         catalog.table_id("date_dim").unwrap(),
//!         catalog.table_id("customer").unwrap(),
//!     ],
//!     predicates: vec![
//!         Predicate { label: "cr⋈d".into(), kind: PredicateKind::Join { left: 0, left_col: 0, right: 1, right_col: 0 } },
//!         Predicate { label: "cr⋈c".into(), kind: PredicateKind::Join { left: 0, left_col: 2, right: 2, right_col: 0 } },
//!     ],
//!     epps: vec![0, 1],
//! };
//! let opt = Optimizer::new(&catalog, &query, CostParams::default(),
//!                          EnumerationMode::LeftDeep).unwrap();
//! let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-6, 8));
//! surface.check_monotone().unwrap();
//! let contours = ContourSet::build(&surface, 2.0);
//! let ic1 = contours.locations(&surface, &EssView::full(2), 0);
//! assert!(!ic1.is_empty());
//! ```

pub mod alignment;
pub mod anorexic;
pub mod contours;
pub mod lazy;
pub mod surface;
pub mod view;

pub use contours::ContourSet;
pub use lazy::{LazySurface, SurfaceAccess};
pub use surface::EssSurface;
pub use view::EssView;
