#ifndef DPPR_NET_INPROC_TRANSPORT_H_
#define DPPR_NET_INPROC_TRANSPORT_H_

#include <memory>
#include <vector>

#include "dppr/net/transport.h"

namespace dppr {

/// In-process backend: a payload "send" moves the buffer into the
/// destination's FrameInbox — no serialization, no copy, no kernel. This is
/// the original SimCluster payload gather refactored behind the Transport
/// interface, and the baseline the TCP backend must match byte for byte.
///
/// Each destination endpoint (every machine plus the coordinator, endpoint
/// n) has its own mailbox, so senders to different destinations never
/// contend; senders to one destination contend only for the O(1) move under
/// that mailbox's mutex.
class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(size_t num_machines);

  TransportBackend backend() const override { return TransportBackend::kInProcess; }

  void Send(uint64_t round, size_t src, size_t dst,
            std::vector<uint8_t> payload) override;
  std::vector<std::vector<uint8_t>> Receive(uint64_t round, size_t dst,
                                            size_t expected) override;

 private:
  /// n machines + the coordinator.
  std::vector<std::unique_ptr<FrameInbox>> endpoints_;
};

}  // namespace dppr

#endif  // DPPR_NET_INPROC_TRANSPORT_H_
