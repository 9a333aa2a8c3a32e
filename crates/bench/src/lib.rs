//! `xpl-bench` — the experiment harness.
//!
//! One runner per table/figure of the paper's evaluation (§VI), each
//! returning structured results that the `repro` binary renders as the
//! same rows/series the paper reports and serializes to JSON.

pub mod ablations;
pub mod churn;
pub mod experiments;
pub mod profile;
pub mod render;
pub mod serve_net;

pub use experiments::{
    fig3_sizes, fig4a_publish, fig4b_publish, fig5a_breakdown, fig5b_retrieval, table2,
    Fig3Scenario,
};
