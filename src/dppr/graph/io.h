#ifndef DPPR_GRAPH_IO_H_
#define DPPR_GRAPH_IO_H_

#include <string>

#include "dppr/common/status.h"
#include "dppr/graph/graph.h"
#include "dppr/graph/graph_builder.h"

namespace dppr {

/// Loads a whitespace-separated edge list ("src dst" per line; '#' and '%'
/// comment lines ignored — the SNAP format used by the paper's datasets).
/// Node-id space is [0, max_id + 1].
StatusOr<Graph> LoadEdgeList(const std::string& path,
                             const GraphBuildOptions& options = {});

/// Writes "src dst" lines with a short header comment.
Status SaveEdgeList(const Graph& graph, const std::string& path);

}  // namespace dppr

#endif  // DPPR_GRAPH_IO_H_
