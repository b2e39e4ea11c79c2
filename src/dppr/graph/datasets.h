#ifndef DPPR_GRAPH_DATASETS_H_
#define DPPR_GRAPH_DATASETS_H_

#include <string>
#include <vector>

#include "dppr/graph/graph.h"

namespace dppr {

/// Synthetic stand-ins for the paper's five evaluation datasets (§6.1),
/// scaled roughly 1/100 so the full experiment suite runs in minutes.
/// `scale` multiplies node/edge counts; a non-positive scale means 1.0. All
/// datasets are deterministic, use the self-loop dangling policy, and build
/// in-edges.
///
/// Paper originals:
///   Email   265,214 nodes /    420,045 edges (EU research institution email)
///   Web     875,713 nodes /  5,105,039 edges (Google web graph)
///   Youtube 1,134,890 nodes / 2,987,624 edges (social)
///   PLD     3,000,000 nodes / 18,185,350 edges (Common Crawl pay-level-domain)
///   Meetup  M1..M5, 0.99M..1.8M nodes, 83M..194M edges (event co-attendance)
///   PLD_full 101M nodes / 1.94B edges (Appendix B)

Graph EmailLike(double scale);
Graph WebLike(double scale);
Graph YoutubeLike(double scale);
Graph PldLike(double scale);

/// Meetup scalability series, index in [1, 5] (Table 6: M1..M5).
Graph MeetupLike(int index, double scale);

/// Appendix-B large-graph stand-in (used with coarse tolerance 1e-2).
Graph PldFullLike(double scale);

/// The 6-node toy graph of paper Figure 3 (hub node u2 separates it).
/// Node ids: u1=0 .. u6=5.
Graph PaperFigure3Graph();

/// The 5-node example of paper Figure 1 / Figure 2.
/// Node ids: u1=0 .. u5=4.
Graph PaperFigure2Graph();

/// Resolves a dataset by name ("email", "web", "youtube", "pld", "meetup1"..
/// "meetup5", "pld_full"). DPPR_CHECK-fails on unknown names.
Graph DatasetByName(const std::string& name, double scale);

/// Names accepted by DatasetByName.
std::vector<std::string> DatasetNames();

}  // namespace dppr

#endif  // DPPR_GRAPH_DATASETS_H_
