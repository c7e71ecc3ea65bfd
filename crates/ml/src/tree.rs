//! Depth-limited CART decision tree with Gini impurity (the role of
//! sklearn's `DecisionTreeClassifier`).

use crate::error::{MlError, Result};
use crate::matrix::Matrix;

/// Hyper-parameters for a decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    /// Maximum tree depth (root at depth 0).
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
}

impl Default for DecisionTree {
    fn default() -> Self {
        DecisionTree {
            max_depth: 5,
            min_samples_split: 2,
        }
    }
}

/// A fitted decision tree.
#[derive(Debug, Clone)]
pub struct FittedTree {
    nodes: Vec<Node>,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        class: u32,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// Gini impurity of per-class counts. The counts are indexed by rank in
/// the sorted class list, so Σp² is summed in one fixed order: two fits
/// of the same data agree to the last bit for any number of classes.
fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    1.0 - counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total as f64;
            p * p
        })
        .sum::<f64>()
}

impl DecisionTree {
    /// Trains on features `x` and labels `y`.
    ///
    /// # Errors
    ///
    /// Fails on shape mismatch or empty input ([`DecisionTree::check`]).
    /// Total over non-finite features.
    pub fn fit(&self, x: &Matrix, y: &[u32]) -> Result<FittedTree> {
        self.check(x.n_rows(), x.n_cols(), y.len())?;
        let mut classes: Vec<u32> = y.to_vec();
        classes.sort_unstable();
        classes.dedup();
        let ranks: Vec<usize> = y
            .iter()
            .map(|l| classes.binary_search(l).unwrap_or(0))
            .collect();
        let mut nodes = Vec::new();
        let idx: Vec<usize> = (0..x.n_rows()).collect();
        let labels = Labels {
            classes: &classes,
            ranks: &ranks,
        };
        self.build(x, &labels, &idx, 0, &mut nodes);
        Ok(FittedTree { nodes })
    }

    /// Every check [`DecisionTree::fit`] makes before it trains: once this
    /// passes on the shape of `(x, y)` (rows, feature columns, labels),
    /// `fit` on them cannot fail. It reads no cell.
    ///
    /// # Errors
    ///
    /// Shape mismatch or empty input.
    pub fn check(&self, rows: usize, cols: usize, labels: usize) -> Result<()> {
        if rows != labels {
            return Err(MlError::ShapeMismatch { rows, labels });
        }
        if rows == 0 || cols == 0 {
            return Err(MlError::EmptyInput("DecisionTree::fit".to_string()));
        }
        Ok(())
    }

    /// Builds a subtree over `idx`; returns its node id.
    fn build(
        &self,
        x: &Matrix,
        labels: &Labels<'_>,
        idx: &[usize],
        depth: usize,
        nodes: &mut Vec<Node>,
    ) -> usize {
        let k = labels.classes.len();
        let counts = labels.counts(idx);
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
        if pure || depth >= self.max_depth || idx.len() < self.min_samples_split {
            let id = nodes.len();
            nodes.push(Node::Leaf {
                class: labels.majority(&counts),
            });
            return id;
        }

        let parent_gini = gini(&counts, idx.len());
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
        let (mut lc, mut rc) = (vec![0usize; k], vec![0usize; k]);
        for f in 0..x.n_cols() {
            let mut vals: Vec<f64> = idx.iter().map(|&i| x.get(i, f)).collect();
            // NaN (a null filled with the mean of `inf` and `-inf`) sorts
            // last; a NaN threshold sends every row right.
            vals.sort_by(crate::cmp_nan_last);
            vals.dedup();
            // Candidate thresholds: midpoints between consecutive distinct values.
            for pair in vals.windows(2) {
                let thr = (pair[0] + pair[1]) / 2.0;
                lc.fill(0);
                rc.fill(0);
                let (mut ln, mut rn) = (0usize, 0usize);
                for &i in idx {
                    if x.get(i, f) <= thr {
                        lc[labels.ranks[i]] += 1;
                        ln += 1;
                    } else {
                        rc[labels.ranks[i]] += 1;
                        rn += 1;
                    }
                }
                let weighted = (ln as f64 * gini(&lc, ln) + rn as f64 * gini(&rc, rn))
                    / idx.len() as f64;
                let gain = parent_gini - weighted;
                if best.is_none_or(|(_, _, g)| gain > g + 1e-12) {
                    best = Some((f, thr, gain));
                }
            }
        }

        // Like sklearn (min_impurity_decrease = 0), accept the best split
        // even at zero gain — XOR-style targets need a zero-gain first cut.
        match best {
            Some((feature, threshold, _gain)) => {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                    idx.iter().partition(|&&i| x.get(i, feature) <= threshold);
                let id = nodes.len();
                nodes.push(Node::Leaf { class: 0 }); // placeholder, patched below
                let left = self.build(x, labels, &left_idx, depth + 1, nodes);
                let right = self.build(x, labels, &right_idx, depth + 1, nodes);
                nodes[id] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                id
            }
            _ => {
                let id = nodes.len();
                nodes.push(Node::Leaf {
                    class: labels.majority(&counts),
                });
                id
            }
        }
    }
}

/// The training labels as ranks into the sorted distinct classes.
struct Labels<'a> {
    classes: &'a [u32],
    ranks: &'a [usize],
}

impl Labels<'_> {
    /// Per-class counts of the rows in `idx`.
    fn counts(&self, idx: &[usize]) -> Vec<usize> {
        let mut counts = vec![0usize; self.classes.len()];
        for &i in idx {
            counts[self.ranks[i]] += 1;
        }
        counts
    }

    /// The most frequent class; ties go to the smallest label.
    fn majority(&self, counts: &[usize]) -> u32 {
        let mut best: Option<(usize, u32)> = None;
        for (&count, &class) in counts.iter().zip(self.classes) {
            if count > 0 && best.is_none_or(|(c, _)| count > c) {
                best = Some((count, class));
            }
        }
        best.map_or(0, |(_, class)| class)
    }
}

impl FittedTree {
    /// Predicts a class per row.
    pub fn predict(&self, x: &Matrix) -> Vec<u32> {
        (0..x.n_rows())
            .map(|r| {
                let mut node = 0usize;
                loop {
                    match &self.nodes[node] {
                        Node::Leaf { class } => return *class,
                        Node::Split {
                            feature,
                            threshold,
                            left,
                            right,
                        } => {
                            node = if x.get(r, *feature) <= *threshold {
                                *left
                            } else {
                                *right
                            };
                        }
                    }
                }
            })
            .collect()
    }

    /// Mean accuracy on `(x, y)`.
    pub fn score(&self, x: &Matrix, y: &[u32]) -> f64 {
        crate::metrics::accuracy(y, &self.predict(x))
    }

    /// Number of nodes (for testing/introspection).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Whether two trees are identical down to every threshold's bit
    /// pattern.
    pub fn bit_eq(&self, other: &FittedTree) -> bool {
        self.nodes.len() == other.nodes.len()
            && self.nodes.iter().zip(&other.nodes).all(|pair| match pair {
                (Node::Leaf { class: a }, Node::Leaf { class: b }) => a == b,
                (
                    Node::Split {
                        feature: fa,
                        threshold: ta,
                        left: la,
                        right: ra,
                    },
                    Node::Split {
                        feature: fb,
                        threshold: tb,
                        left: lb,
                        right: rb,
                    },
                ) => fa == fb && ta.to_bits() == tb.to_bits() && la == lb && ra == rb,
                _ => false,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_axis_aligned_data_perfectly() {
        let x = Matrix::from_rows(&(0..20).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let y: Vec<u32> = (0..20).map(|i| u32::from(i >= 10)).collect();
        let t = DecisionTree::default().fit(&x, &y).unwrap();
        assert_eq!(t.score(&x, &y), 1.0);
    }

    #[test]
    fn xor_needs_depth_two() {
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]);
        let y = vec![0, 1, 1, 0];
        let shallow = DecisionTree {
            max_depth: 1,
            ..Default::default()
        }
        .fit(&x, &y)
        .unwrap();
        assert!(shallow.score(&x, &y) < 1.0);
        let deep = DecisionTree {
            max_depth: 3,
            ..Default::default()
        }
        .fit(&x, &y)
        .unwrap();
        assert_eq!(deep.score(&x, &y), 1.0);
    }

    #[test]
    fn pure_input_is_single_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let t = DecisionTree::default().fit(&x, &[5, 5]).unwrap();
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict(&x), vec![5, 5]);
    }

    #[test]
    fn constant_features_yield_majority_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0]]);
        let t = DecisionTree::default().fit(&x, &[0, 1, 1]).unwrap();
        assert_eq!(t.predict(&x), vec![1, 1, 1]);
    }

    #[test]
    fn multiclass_prediction() {
        let x = Matrix::from_rows(&(0..30).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let y: Vec<u32> = (0..30).map(|i| (i / 10) as u32).collect();
        let t = DecisionTree::default().fit(&x, &y).unwrap();
        assert_eq!(t.score(&x, &y), 1.0);
    }

    #[test]
    fn multiclass_fits_repeat_bit_for_bit() {
        // Three or more classes in a node used to sum Σp² in `HashMap`
        // order, which a fresh `RandomState` reshuffles per map: repeated
        // fits of the same data could differ in a threshold's last bit.
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i * 7 % 13) as f64 / 3.0, (i * 5 % 11) as f64 * 0.7])
            .collect();
        let x = Matrix::from_rows(&rows);
        let y: Vec<u32> = (0..60).map(|i| ((i * 3 + i / 7) % 4) as u32).collect();
        let first = DecisionTree::default().fit(&x, &y).unwrap();
        for _ in 0..20 {
            let again = DecisionTree::default().fit(&x, &y).unwrap();
            assert!(first.bit_eq(&again));
        }
        assert!(first.n_nodes() > 1);
    }

    #[test]
    fn majority_ties_go_to_the_smallest_class() {
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0], vec![1.0]]);
        let t = DecisionTree::default().fit(&x, &[7, 3, 7, 3]).unwrap();
        assert_eq!(t.predict(&x), vec![3; 4]);
    }

    #[test]
    fn fit_is_total_over_non_finite_features() {
        // `inf`, `-inf` and a null filled with their mean (NaN).
        let x = Matrix::from_rows(&[
            vec![f64::INFINITY, 1.0],
            vec![f64::NEG_INFINITY, 2.0],
            vec![f64::NAN, 3.0],
            vec![f64::INFINITY, 4.0],
            vec![f64::NAN, 5.0],
        ]);
        let y = vec![0, 1, 0, 1, 2];
        let t = DecisionTree::default().fit(&x, &y).unwrap();
        let again = DecisionTree::default().fit(&x, &y).unwrap();
        assert!(t.bit_eq(&again));
        assert_eq!(t.predict(&x).len(), 5);
        // A column of NaN only still fits, to a single leaf or a split
        // that sends every row right.
        let nans = Matrix::from_rows(&[vec![f64::NAN], vec![f64::NAN], vec![f64::NAN]]);
        let t = DecisionTree::default().fit(&nans, &[0, 1, 1]).unwrap();
        assert_eq!(t.predict(&nans), vec![1, 1, 1]);
    }

    #[test]
    fn check_reports_exactly_the_errors_fit_reports() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let tree = DecisionTree::default();
        for (x, y) in [
            (&x, &[1][..]),
            (&Matrix::zeros(0, 1), &[][..]),
            (&x, &[0, 1][..]),
        ] {
            assert_eq!(
                tree.check(x.n_rows(), x.n_cols(), y.len()).err(),
                tree.fit(x, y).err()
            );
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let x = Matrix::from_rows(&[vec![1.0]]);
        assert!(DecisionTree::default().fit(&x, &[1, 2]).is_err());
        assert!(DecisionTree::default().fit(&Matrix::zeros(0, 1), &[]).is_err());
    }
}
