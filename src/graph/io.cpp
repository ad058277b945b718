#include "graph/io.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace mg::graph {

std::string to_edge_list(const Graph& g) {
  std::ostringstream out;
  out << g.vertex_count() << ' ' << g.edge_count() << '\n';
  for (const auto& [u, v] : g.edges()) out << u << ' ' << v << '\n';
  return out.str();
}

Graph from_edge_list(const std::string& text) {
  std::istringstream in(text);
  long long n = 0;
  long long m = 0;
  if (!(in >> n >> m) || n < 0 || m < 0) {
    throw std::invalid_argument("edge list: malformed header");
  }
  if (static_cast<unsigned long long>(n) >
      std::numeric_limits<Vertex>::max()) {
    throw std::invalid_argument("edge list: vertex count out of range");
  }
  std::vector<Edge> edges;
  // An edge takes at least 4 characters ("u v\n"), so a header claiming
  // more edges than the text can hold must not size the reservation.
  edges.reserve(std::min(static_cast<std::size_t>(m), text.size() / 4));
  for (long long e = 0; e < m; ++e) {
    long long u = 0;
    long long v = 0;
    if (!(in >> u >> v)) {
      throw std::invalid_argument("edge list: truncated edge section");
    }
    if (u < 0 || v < 0 || u >= n || v >= n) {
      throw std::invalid_argument("edge list: endpoint out of range");
    }
    if (u == v) throw std::invalid_argument("edge list: self-loop");
    edges.emplace_back(static_cast<Vertex>(u), static_cast<Vertex>(v));
  }
  // Anything but whitespace after the m-th edge ("0 1x", a stray line) is
  // malformed input, not ignorable padding.
  if (!(in >> std::ws).eof()) {
    throw std::invalid_argument("edge list: trailing content after edges");
  }
  return Graph::from_edges(static_cast<Vertex>(n), edges);
}

std::string to_dot(const Graph& g, const std::vector<std::string>& labels) {
  std::ostringstream out;
  out << "graph G {\n";
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    out << "  " << v;
    if (v < labels.size()) out << " [label=\"" << labels[v] << "\"]";
    out << ";\n";
  }
  for (const auto& [u, v] : g.edges()) {
    out << "  " << u << " -- " << v << ";\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace mg::graph
