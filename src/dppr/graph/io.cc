#include "dppr/graph/io.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

namespace dppr {

StatusOr<Graph> LoadEdgeList(const std::string& path,
                             const GraphBuildOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);

  EdgeList edges;
  NodeId max_id = 0;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    uint64_t u = 0;
    uint64_t v = 0;
    if (!(ls >> u >> v)) {
      return Status::InvalidArgument("bad edge at " + path + ":" +
                                     std::to_string(line_number));
    }
    if (u >= kInvalidNode || v >= kInvalidNode) {
      return Status::OutOfRange("node id too large at " + path + ":" +
                                std::to_string(line_number));
    }
    edges.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
    max_id = std::max({max_id, static_cast<NodeId>(u), static_cast<NodeId>(v)});
  }
  size_t num_nodes = edges.empty() ? 0 : static_cast<size_t>(max_id) + 1;
  GraphBuilder builder(num_nodes);
  builder.AddEdges(edges);
  return builder.Build(options);
}

Status SaveEdgeList(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << "# dppr edge list: nodes=" << graph.num_nodes()
      << " edges=" << graph.num_edges() << "\n";
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (NodeId v : graph.OutNeighbors(u)) out << u << ' ' << v << '\n';
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace dppr
