#include "dppr/net/inproc_transport.h"

#include <utility>

#include "dppr/common/macros.h"
#include "dppr/obs/metrics.h"

namespace dppr {
namespace {

/// Payloads handed over in memory. No frame header is built here, and the
/// bytes are the payload sizes the CommStats ledgers already count, so the
/// frame count is the only in-process wire series.
obs::Counter* FramesSent() {
  static obs::Counter* const frames_sent =
      obs::MetricsRegistry::Global().GetCounter("net.inproc.frames_sent");
  return frames_sent;
}

}  // namespace

InProcessTransport::InProcessTransport(size_t num_machines)
    : Transport(num_machines) {
  endpoints_.reserve(num_machines + 1);
  for (size_t i = 0; i <= num_machines; ++i) {
    endpoints_.push_back(std::make_unique<FrameInbox>(num_machines));
  }
}

void InProcessTransport::Send(uint64_t round, size_t src, size_t dst,
                              std::vector<uint8_t> payload) {
  DPPR_CHECK_LT(src, num_machines());
  DPPR_CHECK_LT(dst, endpoints_.size());
  FramesSent()->Increment();
  endpoints_[dst]->Push(round, src, std::move(payload));
}

std::vector<std::vector<uint8_t>> InProcessTransport::Receive(uint64_t round,
                                                              size_t dst,
                                                              size_t expected) {
  DPPR_CHECK_LT(dst, endpoints_.size());
  return endpoints_[dst]->WaitCount(round, expected);
}

}  // namespace dppr
