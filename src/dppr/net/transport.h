#ifndef DPPR_NET_TRANSPORT_H_
#define DPPR_NET_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dppr/net/frame.h"

namespace dppr {

/// The pluggable message layers behind SimCluster.
enum class TransportBackend : uint8_t {
  /// Payloads move as in-process buffer hand-offs (one mutex-guarded mailbox
  /// per destination, no serialization or copy) — the refactored home of the
  /// original direct payload gather.
  kInProcess = 0,
  /// Payloads move as checksummed frames over real localhost TCP sockets,
  /// one listener per simulated machine plus one for the coordinator.
  kTcp = 1,
};

const char* TransportBackendName(TransportBackend backend);

/// Backend selection, set in code by whoever builds the cluster; the default
/// is the in-process hand-off.
struct TransportOptions {
  TransportBackend backend = TransportBackend::kInProcess;
};

/// Mailbox of one destination endpoint: payloads arriving for (round, src),
/// delivered to the one waiter of each round once the round's expected
/// payloads are all in. Both backends route through this — the in-process
/// transport pushes moved buffers directly, the TCP receive loops push
/// decoded frame payloads — so waiting, round demultiplexing, and
/// duplicate-frame detection behave identically on either.
///
/// Memory is bounded by the in-flight window, not the transport's lifetime:
/// round ids are dense per inbox (each FrameKind has its own id space and an
/// inbox only ever receives one kind), so retired rounds compact into a low
/// watermark plus the out-of-order completions still above it.
class FrameInbox {
 public:
  explicit FrameInbox(size_t num_sources) : num_sources_(num_sources) {}

  FrameInbox(const FrameInbox&) = delete;
  FrameInbox& operator=(const FrameInbox&) = delete;

  /// Files `payload` under (round, src). A second frame for the same slot,
  /// or any frame for a round WaitCount already retired, is hostile (each
  /// source sends exactly one payload per round, and nobody will ever wait
  /// on a retired round again — absorbing the replay would orphan a slot
  /// holding payload copies forever) and dies.
  void Push(uint64_t round, size_t src, std::vector<uint8_t> payload);

  /// Blocks until `expected` payloads of `round` arrived (all sources, or a
  /// routed round's participants), then returns them indexed by source and
  /// retires the round. The returned vector always has num_sources entries;
  /// sources that sent nothing are empty. Many rounds may be in flight at
  /// once (concurrent queries); each waiter sleeps on its own round's
  /// condition variable, so one round completing never wakes another
  /// round's waiter. The waiter is what knows how many senders a round has,
  /// so a frame count above `expected` (a non-participant sending anyway) is
  /// hostile and dies in Push once the waiter declared the round's size.
  std::vector<std::vector<uint8_t>> WaitCount(uint64_t round, size_t expected);

 private:
  struct Slot {
    std::vector<std::vector<uint8_t>> payloads;
    std::vector<uint8_t> present;
    size_t arrived = 0;
    /// How many payloads complete this round; 0 until the waiter arrives
    /// and declares it (Push cannot know a routed round's participant
    /// count on its own).
    size_t expected = 0;
    /// Per-round: only this round's waiter ever sleeps here.
    std::condition_variable arrived_cv;
  };

  /// Finds or creates the slot of `round`; call with mu_ held.
  Slot& SlotFor(uint64_t round);

  size_t num_sources_;
  std::mutex mu_;
  /// Slots are heap-pinned so a waiter's reference (and its cv) survives
  /// map rehashes while other rounds come and go.
  std::unordered_map<uint64_t, std::unique_ptr<Slot>> rounds_;
  /// Every round below this has been retired; with dense per-inbox ids the
  /// floor chases the slowest in-flight round.
  uint64_t retired_floor_ = 0;
  /// Out-of-order retirements still above the floor (bounded by the number
  /// of concurrent rounds); drained into the floor as the gaps close.
  std::unordered_set<uint64_t> retired_above_floor_;
};

/// Message layer of a simulated cluster: how the bytes of a round actually
/// move between the machines and the coordinator. SimCluster owns one
/// Transport and routes every superstep and query round through it; which
/// backend is live never changes payload bytes, CommStats, or results — only
/// where the bytes physically travel.
///
/// One primitive, the paper's round: machines Send payloads to a
/// destination endpoint, and the round ends at that destination when
/// Receive has them all. There are n + 1 endpoints: machines 0..n-1 and the
/// coordinator, endpoint n (coordinator_endpoint()). A query round or a
/// leaf superstep is every participant sending to the coordinator; an
/// offline shuffle is every machine sending to every machine (the Lin-style
/// pattern where a vector is computed where its subgraph lives and shipped
/// to its owner). A payload's FrameKind follows from its destination
/// (KindFor): kGather into the coordinator, kExchange into a machine.
///
/// Threading contract: Send is safe from any thread (SimCluster's machine
/// tasks run on the shared ThreadPool); Receive is safe from many threads
/// as long as each (round, destination) has exactly one waiter. Round ids
/// come from AllocateRound, so concurrent rounds on one transport never mix
/// frames.
class Transport {
 public:
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  virtual TransportBackend backend() const = 0;

  size_t num_machines() const { return num_machines_; }

  /// Endpoint index of the coordinator (machines are 0..n-1).
  size_t coordinator_endpoint() const { return num_machines_; }

  /// The kind every payload addressed to endpoint `dst` travels as: kGather
  /// into the coordinator, kExchange into a machine. It picks the round-id
  /// space (AllocateRound), which is what keeps each inbox's ids dense.
  FrameKind KindFor(size_t dst) const;

  /// Next round id of `kind`; tag every payload of one round with the same
  /// id. Each kind has its own dense id space — an inbox only ever receives
  /// one kind, which is what lets it compact retired rounds into a low
  /// watermark instead of remembering every id forever.
  ///
  /// Visibility note for receive paths that check allocated_rounds: the C++
  /// memory model alone does not order this fetch_add before a receiver's
  /// load — the threads are only linked by the payload bytes. What makes
  /// the watermark check sound in TcpTransport is the send/recv syscall
  /// pair between allocation and delivery (a kernel-side barrier); a future
  /// backend without a syscall in that path must add its own edge from
  /// sender to receiver before trusting the watermark.
  uint64_t AllocateRound(FrameKind kind) {
    return round_counter(kind).fetch_add(1, std::memory_order_acq_rel);
  }

  /// Ships machine `src`'s payload of `round` to endpoint `dst` (a machine,
  /// or coordinator_endpoint()); `round` comes from
  /// AllocateRound(KindFor(dst)).
  virtual void Send(uint64_t round, size_t src, size_t dst,
                    std::vector<uint8_t> payload) = 0;

  /// Endpoint `dst`'s side of a round: blocks until `expected` machines'
  /// payloads for `round` arrived (a routed round's participants, or all of
  /// them); returns them indexed by source machine, non-senders' entries
  /// empty.
  virtual std::vector<std::vector<uint8_t>> Receive(uint64_t round, size_t dst,
                                                    size_t expected) = 0;

 protected:
  explicit Transport(size_t num_machines);

  /// Rounds of `kind` handed out so far. Every legitimate frame's round id
  /// was allocated before its send, so a receive path may treat an id at or
  /// past this watermark as hostile (it could otherwise squat on a future
  /// round's slot or grow the inbox without bound).
  uint64_t allocated_rounds(FrameKind kind) const {
    return round_counter(kind).load(std::memory_order_acquire);
  }

 private:
  std::atomic<uint64_t>& round_counter(FrameKind kind) {
    return kind == FrameKind::kGather ? next_gather_round_
                                      : next_exchange_round_;
  }
  const std::atomic<uint64_t>& round_counter(FrameKind kind) const {
    return kind == FrameKind::kGather ? next_gather_round_
                                      : next_exchange_round_;
  }

  size_t num_machines_;
  std::atomic<uint64_t> next_gather_round_{0};
  std::atomic<uint64_t> next_exchange_round_{0};
};

/// Factory for TransportOptions::backend.
std::shared_ptr<Transport> MakeTransport(size_t num_machines,
                                         const TransportOptions& options);

}  // namespace dppr

#endif  // DPPR_NET_TRANSPORT_H_
