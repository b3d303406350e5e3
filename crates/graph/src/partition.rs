//! Vertex partitions (community assignments).
//!
//! Both the planted ground truth of an SBM graph and the output of a
//! community detection algorithm are represented as a [`Partition`]: a total
//! assignment of every vertex to exactly one community. Communities are
//! identified by contiguous integers `0..k`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::{GraphError, VertexId};

/// Identifier of a community within a [`Partition`].
pub type CommunityId = usize;

/// A total assignment of vertices to communities.
///
/// # Example
///
/// ```
/// use cdrw_graph::Partition;
///
/// // Two communities: {0, 1, 2} and {3, 4}.
/// let p = Partition::from_assignment(vec![0, 0, 0, 1, 1])?;
/// assert_eq!(p.num_communities(), 2);
/// assert_eq!(p.community_of(4), Some(1));
/// assert_eq!(p.members(0), &[0, 1, 2]);
/// # Ok::<(), cdrw_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    assignment: Vec<CommunityId>,
    members: Vec<Vec<VertexId>>,
}

impl Partition {
    /// Builds a partition from a per-vertex community assignment.
    ///
    /// Community labels may be arbitrary `usize` values; they are re-indexed
    /// to contiguous ids `0..k` in order of first appearance.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyGraph`] if the assignment is empty.
    pub fn from_assignment(raw: Vec<usize>) -> Result<Self, GraphError> {
        if raw.is_empty() {
            return Err(GraphError::EmptyGraph);
        }
        let mut relabel: BTreeMap<usize, CommunityId> = BTreeMap::new();
        let mut assignment = Vec::with_capacity(raw.len());
        for &label in &raw {
            let next = relabel.len();
            let id = *relabel.entry(label).or_insert(next);
            assignment.push(id);
        }
        let mut members = vec![Vec::new(); relabel.len()];
        for (v, &c) in assignment.iter().enumerate() {
            members[c].push(v);
        }
        Ok(Partition {
            assignment,
            members,
        })
    }

    /// Builds a partition from explicit community member lists.
    ///
    /// The lists must cover every vertex of `0..num_vertices` exactly once.
    ///
    /// # Errors
    ///
    /// * [`GraphError::VertexOutOfRange`] if a member is `>= num_vertices`.
    /// * [`GraphError::InvalidParameter`] if a vertex is missing or repeated.
    pub fn from_communities(
        num_vertices: usize,
        communities: &[Vec<VertexId>],
    ) -> Result<Self, GraphError> {
        let mut assignment = vec![usize::MAX; num_vertices];
        for (c, community) in communities.iter().enumerate() {
            for &v in community {
                if v >= num_vertices {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: v,
                        num_vertices,
                    });
                }
                if assignment[v] != usize::MAX {
                    return Err(GraphError::InvalidParameter {
                        name: "communities",
                        reason: format!("vertex {v} appears in more than one community"),
                    });
                }
                assignment[v] = c;
            }
        }
        if let Some(missing) = assignment.iter().position(|&c| c == usize::MAX) {
            return Err(GraphError::InvalidParameter {
                name: "communities",
                reason: format!("vertex {missing} is not assigned to any community"),
            });
        }
        Partition::from_assignment(assignment)
    }

    /// A single community containing every vertex.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyGraph`] when `num_vertices == 0`.
    pub fn single_community(num_vertices: usize) -> Result<Self, GraphError> {
        Partition::from_assignment(vec![0; num_vertices])
    }

    /// Number of vertices covered by the partition.
    pub fn num_vertices(&self) -> usize {
        self.assignment.len()
    }

    /// Number of communities `k`.
    pub fn num_communities(&self) -> usize {
        self.members.len()
    }

    /// Community id of vertex `v`, if `v` is covered.
    pub fn community_of(&self, v: VertexId) -> Option<CommunityId> {
        self.assignment.get(v).copied()
    }

    /// Sorted members of community `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= num_communities()`.
    pub fn members(&self, c: CommunityId) -> &[VertexId] {
        &self.members[c]
    }

    /// Iterator over `(community_id, members)` pairs.
    pub fn communities(&self) -> impl Iterator<Item = (CommunityId, &[VertexId])> {
        self.members
            .iter()
            .enumerate()
            .map(|(c, m)| (c, m.as_slice()))
    }

    /// The per-vertex assignment slice.
    pub fn assignment(&self) -> &[CommunityId] {
        &self.assignment
    }

    /// Size of the smallest community.
    pub fn min_community_size(&self) -> usize {
        self.members.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Whether two vertices belong to the same community.
    ///
    /// Out-of-range vertices are never in the same community.
    pub fn same_community(&self, u: VertexId, v: VertexId) -> bool {
        match (self.community_of(u), self.community_of(v)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    /// The sizes of all communities, indexed by community id.
    pub fn community_sizes(&self) -> Vec<usize> {
        self.members.iter().map(Vec::len).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_assignment_relabels_contiguously() {
        let p = Partition::from_assignment(vec![7, 7, 3, 9, 3]).unwrap();
        assert_eq!(p.num_communities(), 3);
        assert_eq!(p.community_of(0), p.community_of(1));
        assert_eq!(p.community_of(2), p.community_of(4));
        assert_ne!(p.community_of(0), p.community_of(3));
        // First appearance order: 7 → 0, 3 → 1, 9 → 2.
        assert_eq!(p.assignment(), &[0, 0, 1, 2, 1]);
    }

    #[test]
    fn empty_assignment_is_rejected() {
        assert!(Partition::from_assignment(vec![]).is_err());
        assert!(Partition::single_community(0).is_err());
    }

    #[test]
    fn from_communities_roundtrip() {
        let p = Partition::from_communities(5, &[vec![0, 2, 4], vec![1, 3]]).unwrap();
        assert_eq!(p.members(0), &[0, 2, 4]);
        assert_eq!(p.members(1), &[1, 3]);
        assert_eq!(p.num_vertices(), 5);
        assert!(p.same_community(0, 4));
        assert!(!p.same_community(0, 1));
    }

    #[test]
    fn from_communities_detects_missing_vertex() {
        let err = Partition::from_communities(4, &[vec![0, 1], vec![3]]).unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameter { .. }));
    }

    #[test]
    fn from_communities_detects_duplicates() {
        let err = Partition::from_communities(3, &[vec![0, 1], vec![1, 2]]).unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameter { .. }));
    }

    #[test]
    fn from_communities_detects_out_of_range() {
        let err = Partition::from_communities(3, &[vec![0, 1, 2, 3]]).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { .. }));
    }

    #[test]
    fn single_community_covers_everything() {
        let p = Partition::single_community(8).unwrap();
        assert_eq!(p.num_communities(), 1);
        assert_eq!(p.members(0).len(), 8);
        assert_eq!(p.min_community_size(), 8);
    }

    #[test]
    fn out_of_range_queries_are_none_or_false() {
        let p = Partition::single_community(3).unwrap();
        assert_eq!(p.community_of(5), None);
        assert!(!p.same_community(0, 5));
    }

    #[test]
    fn community_sizes_sum_to_vertex_count() {
        let p = Partition::from_assignment(vec![0, 1, 1, 2, 2, 2]).unwrap();
        assert_eq!(p.community_sizes(), vec![1, 2, 3]);
        assert_eq!(p.community_sizes().iter().sum::<usize>(), p.num_vertices());
    }

    proptest! {
        /// Round-trip: building from an assignment and reading the assignment
        /// back preserves the "same community" relation.
        #[test]
        fn same_community_relation_is_preserved(raw in proptest::collection::vec(0usize..5, 1..60)) {
            let p = Partition::from_assignment(raw.clone()).unwrap();
            for i in 0..raw.len() {
                for j in 0..raw.len() {
                    prop_assert_eq!(p.same_community(i, j), raw[i] == raw[j]);
                }
            }
        }

        /// Members lists are disjoint, sorted and cover all vertices.
        #[test]
        fn members_form_a_partition(raw in proptest::collection::vec(0usize..7, 1..80)) {
            let p = Partition::from_assignment(raw.clone()).unwrap();
            let mut seen = vec![false; raw.len()];
            for (_, members) in p.communities() {
                let mut previous: Option<usize> = None;
                for &v in members {
                    prop_assert!(!seen[v]);
                    seen[v] = true;
                    if let Some(prev) = previous {
                        prop_assert!(prev < v);
                    }
                    previous = Some(v);
                }
            }
            prop_assert!(seen.into_iter().all(|b| b));
        }
    }
}
