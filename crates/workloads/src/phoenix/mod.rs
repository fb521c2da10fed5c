//! Phoenix benchmark suite analogues (Table 1, upper half).
//!
//! Each runs tracked and natively from one body;
//! [`run_tracked`](crate::common::run_tracked) documents the tracked schedule
//! and what it means for detection counts.

pub mod histogram;
pub mod kmeans;
pub mod linear_regression;
pub mod matrix_multiply;
pub mod pca;
pub mod reverse_index;
pub mod string_match;
pub mod word_count;
