//! Experiment harness for the planet-apps reproduction.
//!
//! Every table and figure in the paper's evaluation maps to one function
//! in [`experiments`]; the `repro` binary dispatches on experiment id and
//! prints the regenerated rows/series, and the criterion benches in
//! `benches/` measure the computational kernels behind each one.
//!
//! The harness works on the four calibrated synthetic stores from
//! `appstore-synth` (optionally scaled down with `--scale` for quick
//! runs). All randomness descends from a single root seed, so every
//! number printed is reproducible.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
pub mod schema;
pub mod stores;
pub mod streaming;

pub use experiments::{
    run_experiment, run_experiments_observed, run_experiments_observed_with, ExperimentResult,
    EXPERIMENT_IDS,
};
pub use stores::{StoreBundle, Stores};
pub use streaming::{
    fold_comments, fold_downloads, is_streaming_id, run_streaming_experiment, set_progress,
    StreamingStores, STREAMING_IDS,
};
