//! Dense probability distributions over the vertices of a graph.

use cdrw_graph::{Graph, VertexId};
use serde::{Deserialize, Serialize};

use crate::WalkError;

/// A (sub-)probability distribution over the vertices `0..n`.
///
/// The values are non-negative and sum to at most 1. The one-step walk
/// operator preserves total mass exactly; restrictions to a subset (`p_S` in
/// the paper's notation) generally have mass below 1, which is why this type
/// does not enforce normalisation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalkDistribution {
    values: Vec<f64>,
}

impl WalkDistribution {
    /// The distribution putting probability 1 on `source` and 0 elsewhere
    /// (`p_0` of Algorithm 1).
    ///
    /// # Errors
    ///
    /// * [`WalkError::EmptyDistribution`] when `num_vertices == 0`.
    /// * [`WalkError::Graph`] when `source >= num_vertices`.
    pub fn point_mass(num_vertices: usize, source: VertexId) -> Result<Self, WalkError> {
        if num_vertices == 0 {
            return Err(WalkError::EmptyDistribution);
        }
        if source >= num_vertices {
            return Err(cdrw_graph::GraphError::VertexOutOfRange {
                vertex: source,
                num_vertices,
            }
            .into());
        }
        let mut values = vec![0.0; num_vertices];
        values[source] = 1.0;
        Ok(WalkDistribution { values })
    }

    /// The stationary distribution of the random walk on `graph`:
    /// `π(v) = w(v)/w(V)`, which is `d(v)/2m` on an unweighted graph.
    ///
    /// # Errors
    ///
    /// * [`WalkError::EmptyDistribution`] for a graph with no vertices.
    /// * [`WalkError::NoEdges`] for a graph with no edges (the walk has no
    ///   stationary distribution).
    pub fn stationary(graph: &Graph) -> Result<Self, WalkError> {
        if graph.num_vertices() == 0 {
            return Err(WalkError::EmptyDistribution);
        }
        if graph.total_volume() == 0 {
            return Err(WalkError::NoEdges);
        }
        let volume = graph.weighted_volume();
        let values = graph
            .vertices()
            .map(|v| graph.weighted_degree(v) / volume)
            .collect();
        Ok(WalkDistribution { values })
    }

    /// Wraps a raw value vector (used by the CONGEST simulator, which owns
    /// per-node probability fragments).
    ///
    /// # Errors
    ///
    /// * [`WalkError::EmptyDistribution`] when the vector is empty.
    /// * [`WalkError::InvalidParameter`] when a value is negative or not
    ///   finite.
    pub fn from_values(values: Vec<f64>) -> Result<Self, WalkError> {
        if values.is_empty() {
            return Err(WalkError::EmptyDistribution);
        }
        if let Some(bad) = values.iter().find(|v| !v.is_finite() || **v < 0.0) {
            return Err(WalkError::InvalidParameter {
                name: "values",
                reason: format!("probabilities must be finite and non-negative, found {bad}"),
            });
        }
        Ok(WalkDistribution { values })
    }

    /// Number of vertices the distribution is defined over.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the distribution has zero length (never true for a
    /// successfully constructed value).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Probability mass at vertex `v` (0.0 when out of range).
    pub fn probability(&self, v: VertexId) -> f64 {
        self.values.get(v).copied().unwrap_or(0.0)
    }

    /// The raw value slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Total probability mass `Σ_v p(v)`.
    pub fn total_mass(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Number of vertices carrying non-zero probability (the "support").
    pub fn support_size(&self) -> usize {
        self.values.iter().filter(|&&p| p > 0.0).count()
    }

    /// L1 distance `‖p − q‖₁ = Σ_v |p(v) − q(v)|`.
    ///
    /// # Panics
    ///
    /// Panics if the distributions have different lengths.
    pub fn l1_distance(&self, other: &WalkDistribution) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "distributions must be over the same vertex set"
        );
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrw_graph::GraphBuilder;
    use proptest::prelude::*;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn point_mass_construction() {
        let d = WalkDistribution::point_mass(5, 2).unwrap();
        assert_eq!(d.len(), 5);
        assert_eq!(d.probability(2), 1.0);
        assert_eq!(d.probability(0), 0.0);
        assert_eq!(d.support_size(), 1);
        assert!((d.total_mass() - 1.0).abs() < 1e-15);
        assert!(WalkDistribution::point_mass(0, 0).is_err());
        assert!(WalkDistribution::point_mass(3, 3).is_err());
    }

    #[test]
    fn stationary_is_degree_proportional() {
        let g = path(4); // degrees 1, 2, 2, 1; 2m = 6
        let pi = WalkDistribution::stationary(&g).unwrap();
        assert!((pi.probability(0) - 1.0 / 6.0).abs() < 1e-15);
        assert!((pi.probability(1) - 2.0 / 6.0).abs() < 1e-15);
        assert!((pi.total_mass() - 1.0).abs() < 1e-12);
        assert!(WalkDistribution::stationary(&Graph::empty(4)).is_err());
        assert!(WalkDistribution::stationary(&Graph::empty(0)).is_err());
    }

    #[test]
    fn weighted_stationary_is_weighted_degree_proportional() {
        // Triangle with weights 1, 2, 3: w(0) = 1+3 = 4, w(1) = 1+2 = 3,
        // w(2) = 2+3 = 5, w(V) = 12.
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 1.0).unwrap();
        b.add_weighted_edge(1, 2, 2.0).unwrap();
        b.add_weighted_edge(2, 0, 3.0).unwrap();
        let g = b.build();
        let pi = WalkDistribution::stationary(&g).unwrap();
        assert!((pi.probability(0) - 4.0 / 12.0).abs() < 1e-15);
        assert!((pi.probability(1) - 3.0 / 12.0).abs() < 1e-15);
        assert!((pi.probability(2) - 5.0 / 12.0).abs() < 1e-15);
    }

    #[test]
    fn unit_weights_match_the_unweighted_stationary() {
        let edges = [(0usize, 1usize), (1, 2), (2, 3), (3, 0), (0, 2)];
        let plain = GraphBuilder::from_edges(4, edges).unwrap();
        let unit = GraphBuilder::from_weighted_edges(4, edges.map(|(u, v)| (u, v, 1.0))).unwrap();
        let a = WalkDistribution::stationary(&plain).unwrap();
        let b = WalkDistribution::stationary(&unit).unwrap();
        for v in 0..4 {
            assert_eq!(a.probability(v).to_bits(), b.probability(v).to_bits());
        }
    }

    #[test]
    fn from_values_validation() {
        assert!(WalkDistribution::from_values(vec![]).is_err());
        assert!(WalkDistribution::from_values(vec![0.5, -0.1]).is_err());
        assert!(WalkDistribution::from_values(vec![0.5, f64::NAN]).is_err());
        let d = WalkDistribution::from_values(vec![0.25, 0.75]).unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn l1_distance_basic_properties() {
        let a = WalkDistribution::point_mass(4, 0).unwrap();
        let b = WalkDistribution::point_mass(4, 3).unwrap();
        assert!((a.l1_distance(&b) - 2.0).abs() < 1e-15);
        assert_eq!(a.l1_distance(&a), 0.0);
    }

    #[test]
    fn out_of_range_probability_is_zero() {
        let d = WalkDistribution::point_mass(3, 0).unwrap();
        assert_eq!(d.probability(10), 0.0);
    }

    proptest! {
        /// L1 distance is a metric on the simplex: symmetric, zero on equal
        /// inputs, triangle inequality.
        #[test]
        fn l1_is_a_metric(
            a in proptest::collection::vec(0.0f64..1.0, 6),
            b in proptest::collection::vec(0.0f64..1.0, 6),
            c in proptest::collection::vec(0.0f64..1.0, 6),
        ) {
            let da = WalkDistribution::from_values(a).unwrap();
            let db = WalkDistribution::from_values(b).unwrap();
            let dc = WalkDistribution::from_values(c).unwrap();
            prop_assert!((da.l1_distance(&db) - db.l1_distance(&da)).abs() < 1e-12);
            prop_assert!(da.l1_distance(&da).abs() < 1e-12);
            prop_assert!(da.l1_distance(&dc) <= da.l1_distance(&db) + db.l1_distance(&dc) + 1e-12);
        }
    }
}
