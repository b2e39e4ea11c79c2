#include "dppr/graph/datasets.h"

#include <cmath>

#include "dppr/common/macros.h"
#include "dppr/graph/generators.h"
#include "dppr/graph/graph_builder.h"

namespace dppr {
namespace {

double EffectiveScale(double scale) { return scale > 0 ? scale : 1.0; }

GraphBuildOptions DatasetOptions() {
  GraphBuildOptions options;
  options.dangling = DanglingPolicy::kSelfLoop;
  options.build_in_edges = true;
  return options;
}

size_t Scaled(size_t base, double scale) {
  return std::max<size_t>(16, static_cast<size_t>(std::llround(base * scale)));
}

}  // namespace

Graph EmailLike(double scale) {
  double s = EffectiveScale(scale);
  // Email networks: strong in-degree skew, many leaf senders, sparse.
  return PreferentialAttachment(Scaled(2652, s), /*out_degree=*/2,
                                /*seed=*/0xE3A11ULL, /*reciprocal_prob=*/0.3,
                                DatasetOptions());
}

Graph WebLike(double scale) {
  double s = EffectiveScale(scale);
  size_t nodes = Scaled(8757, s);
  uint32_t log2n = 1;
  while ((size_t{1} << log2n) < nodes) ++log2n;
  return Rmat(log2n, Scaled(51050, s), /*seed=*/0x3EBULL, RmatParams{},
              DatasetOptions());
}

Graph YoutubeLike(double scale) {
  double s = EffectiveScale(scale);
  return CommunityDigraph(Scaled(11349, s), /*num_communities=*/64,
                          /*avg_out_degree=*/2.63, /*intra_prob=*/0.8,
                          /*seed=*/0x707BULL, DatasetOptions());
}

Graph PldLike(double scale) {
  double s = EffectiveScale(scale);
  size_t nodes = Scaled(30000, s);
  uint32_t log2n = 1;
  while ((size_t{1} << log2n) < nodes) ++log2n;
  RmatParams params;
  params.a = 0.50;
  params.b = 0.22;
  params.c = 0.22;
  params.d = 0.06;
  return Rmat(log2n, Scaled(181854, s), /*seed=*/0x91DULL, params,
              DatasetOptions());
}

Graph MeetupLike(int index, double scale) {
  DPPR_CHECK_GE(index, 1);
  DPPR_CHECK_LE(index, 5);
  double s = EffectiveScale(scale);
  // Paper Table 6: nodes grow ~1.0M -> 1.8M linearly, edges 83M -> 194M.
  size_t users = Scaled(4986 + 999 * (index - 1), s);
  size_t events = users / 3;
  return CoAttendanceGraph(users, events, /*attendees_per_event=*/8,
                           /*max_pairs_per_event=*/12,
                           /*seed=*/0x3EE70ULL + index, DatasetOptions());
}

Graph PldFullLike(double scale) {
  double s = EffectiveScale(scale);
  size_t nodes = Scaled(60000, s);
  uint32_t log2n = 1;
  while ((size_t{1} << log2n) < nodes) ++log2n;
  RmatParams params;
  params.a = 0.50;
  params.b = 0.22;
  params.c = 0.22;
  params.d = 0.06;
  return Rmat(log2n, Scaled(360000, s), /*seed=*/0xF0FULL, params,
              DatasetOptions());
}

Graph PaperFigure3Graph() {
  // u1=0, u2=1, u3=2, u4=3, u5=4, u6=5. Hub u2 separates {u1,u3} from
  // {u4,u5,u6} (Figure 3/4/5 discussion).
  GraphBuilder builder(6);
  builder.AddEdge(0, 1);  // u1 -> u2
  builder.AddEdge(1, 0);  // u2 -> u1
  builder.AddEdge(2, 1);  // u3 -> u2
  builder.AddEdge(1, 2);  // u2 -> u3
  builder.AddEdge(1, 4);  // u2 -> u5
  builder.AddEdge(4, 3);  // u5 -> u4
  builder.AddEdge(4, 5);  // u5 -> u6
  builder.AddEdge(5, 4);  // u6 -> u5
  builder.AddEdge(3, 1);  // u4 -> u2 (gives u5 out-degree context, u4 links back)
  GraphBuildOptions options;
  options.dangling = DanglingPolicy::kSelfLoop;
  return builder.Build(options);
}

Graph PaperFigure2Graph() {
  // u1=0, u2=1, u3=2, u4=3, u5=4; hub candidates u1/u2 split G1={u1,u3,u2}
  // top from G2={u4,u5} bottom (Figure 2).
  GraphBuilder builder(5);
  builder.AddEdge(0, 2);  // u1 -> u3
  builder.AddEdge(2, 1);  // u3 -> u2
  builder.AddEdge(1, 0);  // u2 -> u1
  builder.AddEdge(0, 3);  // u1 -> u4
  builder.AddEdge(3, 4);  // u4 -> u5
  builder.AddEdge(4, 1);  // u5 -> u2
  GraphBuildOptions options;
  options.dangling = DanglingPolicy::kSelfLoop;
  return builder.Build(options);
}

Graph DatasetByName(const std::string& name, double scale) {
  if (name == "email") return EmailLike(scale);
  if (name == "web") return WebLike(scale);
  if (name == "youtube") return YoutubeLike(scale);
  if (name == "pld") return PldLike(scale);
  if (name == "pld_full") return PldFullLike(scale);
  if (name.rfind("meetup", 0) == 0 && name.size() == 7) {
    int index = name[6] - '0';
    DPPR_CHECK_GE(index, 1);
    DPPR_CHECK_LE(index, 5);
    return MeetupLike(index, scale);
  }
  DPPR_CHECK(false);  // unknown dataset name
  return Graph();
}

std::vector<std::string> DatasetNames() {
  return {"email",   "web",     "youtube", "pld",     "meetup1", "meetup2",
          "meetup3", "meetup4", "meetup5", "pld_full"};
}

}  // namespace dppr
