//! `xpl-semgraph` — VMI semantic graphs, similarity metrics and master
//! graphs (paper §III).
//!
//! A VMI's semantic graph `G_I = (V_I, E_I)` has the base image, primary
//! packages and dependency packages as vertices and dependency relations
//! as edges (§III-B, Figure 1 — including cyclic dependencies such as
//! `libc6 ⇄ perl-base ⇄ dpkg`). From it we extract the base-image subgraph
//! `G_I[BI]` and primary-package subgraph `G_I[PS]`, compute similarity
//! (`simBI`, `simP`, `simsize`, `SimG`) and semantic compatibility, and
//! merge compatible images into per-(type, distro, ver, arch) master
//! graphs (§III-H) that make similarity computation O(#masters) instead of
//! O(#images).
//!
//! **Interpretation note (documented in DESIGN.md §5):** the paper's SimG
//! denominator "union of all packages in both VMIs" is read as the
//! size-normalized union mass Σ_{P∈V1∪V2} simsize(P,P); the numerator sums
//! over name-matched pairs. This makes SimG a size-weighted Jaccard index
//! ("intersection over union", as the text says) with SimG(G,G) = 1.

pub mod graph;
pub mod master;
pub mod similarity;

pub use graph::{PkgRole, PkgVertex, SemanticGraph};
pub use master::MasterGraph;
pub use similarity::{compatibility, sim_g};
