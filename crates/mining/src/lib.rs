//! # ada-mining
//!
//! From-scratch mining algorithms for ADA-HEALTH.
//!
//! The paper's preliminary implementation leans on two exploratory
//! algorithm families plus a classifier:
//!
//! * **Clustering** — K-means; its reference \[3\] is Kanungo et al.'s
//!   kd-tree *filtering* algorithm, implemented in [`kmeans::filtering`]
//!   next to the classic Lloyd iteration ([`kmeans::lloyd`]), with
//!   DBSCAN ([`dbscan`]) as the density-based extension algorithm the
//!   architecture can swap in.
//! * **Frequent-pattern discovery** — its reference \[2\] (MeTA) mines
//!   medical treatments at multiple abstraction levels; [`patterns`]
//!   implements Apriori, FP-growth, association-rule generation and a
//!   taxonomy-aware multi-level miner.
//! * **Classification** — Table I scores clustering robustness with a
//!   decision tree under 10-fold cross validation; [`tree`] is a CART
//!   implementation, [`bayes`] a Gaussian naive Bayes ablation
//!   alternative, and [`validate`] the stratified k-fold driver.
//!
//! All algorithms are deterministic given their seeds.

#![warn(missing_docs)]

pub mod bayes;
pub mod dbscan;
pub mod forest;
pub mod kmeans;
pub mod knn;
pub mod patterns;
pub mod sequences;
pub mod tree;
pub mod validate;

pub use kmeans::{pad_centroids, KMeans, KMeansBackend, KMeansInit, KMeansResult};
pub use patterns::{FrequentItemset, Itemset, Transaction};
pub use tree::DecisionTree;
