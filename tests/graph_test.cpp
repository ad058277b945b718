// Unit tests for the CSR graph substrate and its text I/O.
#include <gtest/gtest.h>

#include <vector>

#include "graph/graph.h"
#include "graph/io.h"
#include "support/contracts.h"

namespace mg::graph {
namespace {

TEST(Graph, EmptyGraphHasIsolatedVertices) {
  Graph g(5);
  EXPECT_EQ(g.vertex_count(), 5u);
  EXPECT_EQ(g.edge_count(), 0u);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(Graph, BuilderAddsUndirectedEdges) {
  GraphBuilder b(4);
  b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 3);
  const Graph g = b.build();
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(Graph, DuplicateEdgesCollapse) {
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(1, 0).add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, SelfLoopRejected) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(1, 1), ContractViolation);
}

TEST(Graph, OutOfRangeEndpointRejected) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), ContractViolation);
}

TEST(Graph, NeighborsAreSorted) {
  GraphBuilder b(5);
  b.add_edge(2, 4).add_edge(2, 0).add_edge(2, 3).add_edge(2, 1);
  const Graph g = b.build();
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(Graph, EdgesListedOnceOrdered) {
  GraphBuilder b(4);
  b.add_edge(3, 0).add_edge(2, 1);
  const auto edges = Graph(b.build()).edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], Edge(0, 3));
  EXPECT_EQ(edges[1], Edge(1, 2));
}

TEST(Graph, FromEdgesEquivalentToBuilder) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}};
  const Graph a = Graph::from_edges(3, edges);
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(1, 2);
  EXPECT_EQ(a, b.build());
}

TEST(Graph, FromCsrEquivalentToFromEdges) {
  // Path 0-1-2: offsets {0, 1, 3, 4}, adjacency {1, 0, 2, 1}.
  const Graph direct =
      Graph::from_csr({0, 1, 3, 4}, {1, 0, 2, 1});
  const std::vector<Edge> edges = {{0, 1}, {1, 2}};
  EXPECT_EQ(direct, Graph::from_edges(3, edges));
}

TEST(Graph, FromCsrRejectsMalformedInput) {
  // Offsets not ending at the adjacency size.
  EXPECT_THROW(Graph::from_csr({0, 1, 3, 3}, {1, 0, 2, 1}),
               ContractViolation);
  // Non-monotone offsets.
  EXPECT_THROW(Graph::from_csr({0, 3, 1, 4}, {1, 0, 2, 1}),
               ContractViolation);
  // Unsorted neighbor list.
  EXPECT_THROW(Graph::from_csr({0, 2, 3, 4}, {2, 1, 0, 0}),
               ContractViolation);
  // Duplicate neighbor (sorted but not strictly ascending).
  EXPECT_THROW(Graph::from_csr({0, 2, 4, 4}, {1, 1, 0, 0}),
               ContractViolation);
  // Self-loop.
  EXPECT_THROW(Graph::from_csr({0, 1, 2}, {0, 0}), ContractViolation);
  // Neighbor out of range.
  EXPECT_THROW(Graph::from_csr({0, 1, 2}, {5, 0}), ContractViolation);
  // Odd adjacency size cannot encode an undirected edge set.
  EXPECT_THROW(Graph::from_csr({0, 1}, {0}), ContractViolation);
}

TEST(Graph, BuilderIsReusableAfterBuild) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph first = b.build();
  b.add_edge(1, 2);
  const Graph second = b.build();
  EXPECT_EQ(first.edge_count(), 1u);
  EXPECT_EQ(second.edge_count(), 1u);
  EXPECT_TRUE(second.has_edge(1, 2));
  EXPECT_FALSE(second.has_edge(0, 1));
}

TEST(GraphIo, RoundTripsEdgeList) {
  GraphBuilder b(4);
  b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 3);
  const Graph g = b.build();
  const Graph parsed = from_edge_list(to_edge_list(g));
  EXPECT_EQ(g, parsed);
}

TEST(GraphIo, ParsesExplicitText) {
  const Graph g = from_edge_list("3 2\n0 1\n1 2\n");
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(GraphIo, RejectsMalformedHeader) {
  EXPECT_THROW(from_edge_list("abc"), std::invalid_argument);
  EXPECT_THROW(from_edge_list("-1 0"), std::invalid_argument);
  // Vertex counts past the Vertex range must not wrap around.
  EXPECT_THROW(from_edge_list("4294967296 0"), std::invalid_argument);
  EXPECT_THROW(from_edge_list("4294967298 1\n0 5\n"), std::invalid_argument);
}

TEST(GraphIo, RejectsTruncatedEdges) {
  EXPECT_THROW(from_edge_list("3 2\n0 1\n"), std::invalid_argument);
  // A huge edge count is a truncated list, not an allocation request.
  EXPECT_THROW(from_edge_list("3 99999999999999999"), std::invalid_argument);
}

TEST(GraphIo, RejectsBadEndpoints) {
  EXPECT_THROW(from_edge_list("3 1\n0 5\n"), std::invalid_argument);
  EXPECT_THROW(from_edge_list("3 1\n1 1\n"), std::invalid_argument);
  // Trailing non-whitespace after the last edge.
  EXPECT_THROW(from_edge_list("3 1\n0 1x\n"), std::invalid_argument);
  EXPECT_THROW(from_edge_list("3 1\n0 1\ngarbage\n"), std::invalid_argument);
}

TEST(GraphIo, DotContainsVerticesAndEdges) {
  GraphBuilder b(3);
  b.add_edge(0, 2);
  const std::string dot = to_dot(b.build(), {"a", "b", "c"});
  EXPECT_NE(dot.find("graph G {"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 2;"), std::string::npos);
  EXPECT_NE(dot.find("label=\"b\""), std::string::npos);
}

}  // namespace
}  // namespace mg::graph
