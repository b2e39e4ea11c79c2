#include "dppr/net/inproc_transport.h"

#include <utility>

#include "dppr/common/macros.h"
#include "dppr/obs/metrics.h"

namespace dppr {
namespace {

/// In-process "wire" accounting: payload bytes only (no frame headers exist
/// here), so net.inproc.bytes_sent matches the CommStats ledger while
/// net.tcp.bytes_sent shows what the same workload costs on real sockets.
struct InprocMetrics {
  obs::Counter* bytes_sent;
  obs::Counter* frames_sent;

  static const InprocMetrics& Get() {
    static const InprocMetrics metrics = [] {
      auto& r = obs::MetricsRegistry::Global();
      return InprocMetrics{r.GetCounter("net.inproc.bytes_sent"),
                           r.GetCounter("net.inproc.frames_sent")};
    }();
    return metrics;
  }
};

}  // namespace

InProcessTransport::InProcessTransport(size_t num_machines)
    : Transport(num_machines), coordinator_(num_machines) {
  machines_.reserve(num_machines);
  for (size_t m = 0; m < num_machines; ++m) {
    machines_.push_back(std::make_unique<FrameInbox>(num_machines));
  }
}

void InProcessTransport::SendToCoordinator(uint64_t round, size_t src,
                                           std::vector<uint8_t> payload) {
  DPPR_CHECK_LT(src, num_machines());
  const InprocMetrics& metrics = InprocMetrics::Get();
  metrics.frames_sent->Increment();
  metrics.bytes_sent->Add(payload.size());
  coordinator_.Push(round, src, std::move(payload));
}

std::vector<std::vector<uint8_t>> InProcessTransport::GatherRound(
    uint64_t round, size_t expected) {
  return coordinator_.WaitCount(round, expected);
}

void InProcessTransport::SendToMachine(uint64_t round, size_t src, size_t dst,
                                       std::vector<uint8_t> payload) {
  DPPR_CHECK_LT(src, num_machines());
  DPPR_CHECK_LT(dst, num_machines());
  const InprocMetrics& metrics = InprocMetrics::Get();
  metrics.frames_sent->Increment();
  metrics.bytes_sent->Add(payload.size());
  machines_[dst]->Push(round, src, std::move(payload));
}

std::vector<std::vector<uint8_t>> InProcessTransport::ReceiveExchange(
    uint64_t round, size_t dst) {
  DPPR_CHECK_LT(dst, num_machines());
  return machines_[dst]->WaitAll(round);
}

}  // namespace dppr
