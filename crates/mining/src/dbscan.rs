//! DBSCAN density clustering.
//!
//! An extension algorithm for ADA-HEALTH's algorithm-selection layer:
//! unlike K-means it needs no K, and its noise label doubles as the
//! outlier detector the paper mentions ("rarely prescribed \[exams\] …
//! could affect other types of analyses such as outlier detection").
//! Region queries run against the same kd-tree the filtering K-means
//! uses.

use ada_vsm::dense::DenseMatrix;
use ada_vsm::kdtree::{KdTree, NodeId};

/// Label assigned to every point by DBSCAN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbscanLabel {
    /// Not density-reachable from any core point.
    Noise,
    /// Member of the cluster with the given dense index.
    Cluster(usize),
}

/// DBSCAN configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dbscan {
    /// Neighbourhood radius (Euclidean).
    pub eps: f64,
    /// Minimum neighbourhood size (including the point itself) for a
    /// point to be a core point.
    pub min_points: usize,
}

/// DBSCAN output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbscanResult {
    /// Per-point labels.
    pub labels: Vec<DbscanLabel>,
    /// Number of clusters discovered.
    pub num_clusters: usize,
}

impl DbscanResult {
    /// Indices of the noise points.
    pub fn noise_points(&self) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, l)| **l == DbscanLabel::Noise)
            .map(|(i, _)| i)
            .collect()
    }
}

impl Dbscan {
    /// Creates a configuration.
    ///
    /// # Panics
    /// Panics when `eps` is not positive/finite or `min_points == 0`.
    pub fn new(eps: f64, min_points: usize) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "eps must be positive");
        assert!(min_points >= 1, "min_points must be positive");
        Self { eps, min_points }
    }

    /// Clusters the rows of `matrix`.
    pub fn fit(&self, matrix: &DenseMatrix) -> DbscanResult {
        let n = matrix.num_rows();
        if n == 0 {
            return DbscanResult {
                labels: Vec::new(),
                num_clusters: 0,
            };
        }
        let tree = KdTree::build(matrix);
        let eps_sq = self.eps * self.eps;

        const UNVISITED: usize = usize::MAX;
        const NOISE: usize = usize::MAX - 1;
        let mut label = vec![UNVISITED; n];
        let mut cluster = 0usize;

        for p in 0..n {
            if label[p] != UNVISITED {
                continue;
            }
            let neighbours = region_query(&tree, matrix.row(p), eps_sq);
            if neighbours.len() < self.min_points {
                label[p] = NOISE;
                continue;
            }
            // Start a new cluster and expand it (classic seed-set loop).
            label[p] = cluster;
            let mut seeds = neighbours;
            let mut cursor = 0;
            while cursor < seeds.len() {
                let q = seeds[cursor];
                cursor += 1;
                if label[q] == NOISE {
                    label[q] = cluster; // border point
                }
                if label[q] != UNVISITED {
                    continue;
                }
                label[q] = cluster;
                let q_neigh = region_query(&tree, matrix.row(q), eps_sq);
                if q_neigh.len() >= self.min_points {
                    seeds.extend(q_neigh);
                }
            }
            cluster += 1;
        }

        DbscanResult {
            labels: label
                .into_iter()
                .map(|l| {
                    if l == NOISE {
                        DbscanLabel::Noise
                    } else {
                        DbscanLabel::Cluster(l)
                    }
                })
                .collect(),
            num_clusters: cluster,
        }
    }
}

/// All point indices within squared distance `eps_sq` of `q` (including
/// the query point itself when it is a data point).
fn region_query(tree: &KdTree, q: &[f64], eps_sq: f64) -> Vec<usize> {
    let mut out = Vec::new();
    rec(tree, tree.root(), q, eps_sq, &mut out);
    out
}

fn rec(tree: &KdTree, node: NodeId, q: &[f64], eps_sq: f64, out: &mut Vec<usize>) {
    if tree.bbox_distance_sq(node, q) > eps_sq {
        return;
    }
    match tree.children(node) {
        Some((l, r)) => {
            rec(tree, l, q, eps_sq, out);
            rec(tree, r, q, eps_sq, out);
        }
        None => {
            for &p in tree.points_in(node) {
                if ada_vsm::dense::distance_sq(q, tree.point(p)) <= eps_sq {
                    out.push(p);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::testutil::gaussian_blobs;

    #[test]
    fn separates_blobs_and_flags_outlier() {
        // Two tight blobs plus one far outlier.
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..20 {
            rows.push(vec![0.0 + (i as f64) * 0.01, 0.0]);
        }
        for i in 0..20 {
            rows.push(vec![50.0 + (i as f64) * 0.01, 0.0]);
        }
        rows.push(vec![500.0, 500.0]);
        let m = DenseMatrix::from_rows(&rows);
        let result = Dbscan::new(1.0, 3).fit(&m);
        assert_eq!(result.num_clusters, 2);
        assert_eq!(result.noise_points(), vec![40]);
        let first = result.labels[0];
        assert!(result.labels[..20].iter().all(|&l| l == first));
        assert_ne!(result.labels[20], first);
    }

    #[test]
    fn all_noise_when_eps_tiny() {
        let m = gaussian_blobs(2, 10, 2, 41);
        let result = Dbscan::new(1e-9, 3).fit(&m);
        assert_eq!(result.num_clusters, 0);
        assert_eq!(result.noise_points().len(), 20);
    }

    #[test]
    fn single_cluster_when_eps_huge() {
        let m = gaussian_blobs(3, 10, 2, 42);
        let result = Dbscan::new(1e6, 2).fit(&m);
        assert_eq!(result.num_clusters, 1);
        assert!(result.noise_points().is_empty());
    }

    #[test]
    fn empty_input() {
        let result = Dbscan::new(1.0, 2).fit(&DenseMatrix::zeros(0, 3));
        assert_eq!(result.num_clusters, 0);
        assert!(result.labels.is_empty());
    }

    #[test]
    fn labels_are_dense_cluster_ids() {
        let m = gaussian_blobs(3, 15, 3, 43);
        let result = Dbscan::new(2.0, 3).fit(&m);
        for l in &result.labels {
            if let DbscanLabel::Cluster(c) = l {
                assert!(*c < result.num_clusters);
            }
        }
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn rejects_bad_eps() {
        let _ = Dbscan::new(0.0, 3);
    }
}
