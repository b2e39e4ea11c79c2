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
    : Transport(num_machines), coordinator_(num_machines) {
  machines_.reserve(num_machines);
  for (size_t m = 0; m < num_machines; ++m) {
    machines_.push_back(std::make_unique<FrameInbox>(num_machines));
  }
}

void InProcessTransport::SendToCoordinator(uint64_t round, size_t src,
                                           std::vector<uint8_t> payload) {
  DPPR_CHECK_LT(src, num_machines());
  FramesSent()->Increment();
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
  FramesSent()->Increment();
  machines_[dst]->Push(round, src, std::move(payload));
}

std::vector<std::vector<uint8_t>> InProcessTransport::ReceiveExchange(
    uint64_t round, size_t dst) {
  DPPR_CHECK_LT(dst, num_machines());
  return machines_[dst]->WaitAll(round);
}

}  // namespace dppr
