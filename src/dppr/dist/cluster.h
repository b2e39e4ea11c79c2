#ifndef DPPR_DIST_CLUSTER_H_
#define DPPR_DIST_CLUSTER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "dppr/dist/ledger.h"
#include "dppr/dist/network.h"
#include "dppr/net/transport.h"

namespace dppr {

/// Measured + modeled cost of one communication round: the participating
/// machines compute, each ships its payloads to the round's destinations,
/// and the round ends when every destination has them all; then the
/// caller's reduce runs. A gather (query round, leaf superstep) has one
/// destination, the coordinator; an exchange (offline shuffle) has every
/// machine.
struct RoundMetrics {
  /// kGather (machines → the coordinator) or kExchange (machine → machine).
  FrameKind kind = FrameKind::kGather;
  /// Measured compute time of each simulated machine's task; n wide, zero
  /// for machines that did not take part.
  std::vector<double> machine_seconds;
  /// Network traffic by destination: one entry, the coordinator, for a
  /// gather; one per machine, by index, for an exchange. Every payload that
  /// crosses the network is one message, empty or not; a machine's
  /// self-addressed payload never crosses it and is not counted. The one
  /// ledger of a round's bytes and messages: QueryMetrics::comm and
  /// MultiRoundStats read it, and no registry series copies it.
  std::vector<CommStats> ingress;
  /// Measured coordinator reduce (ingest) time, filled in by the caller.
  double coordinator_seconds = 0.0;

  double MaxMachineSeconds() const;

  /// Σ ingress. For a gather this is the coordinator's ingress, the paper's
  /// communication-cost metric.
  CommStats Traffic() const;

  /// End-to-end latency of the round under `net`: machines compute in
  /// parallel (max compute), then every destination's ingress link drains
  /// its bytes at link bandwidth plus one latency per message, in parallel
  /// with the others (the slowest link gates the barrier), then the
  /// coordinator reduces. For a gather, the one link is the coordinator's,
  /// and this is the paper's reported "runtime".
  double SimulatedSeconds(const NetworkModel& net) const;
};

/// Accumulates RoundMetrics across the supersteps of a multi-round algorithm
/// (the BSP baseline pays one round per superstep; HGPA pays exactly one).
/// Exchange rounds count into `rounds`/`simulated_seconds` alongside
/// gathers, with their traffic kept in the distinct `shuffled` column
/// (coordinator ingress and machine→machine bytes are different links and
/// the paper's tables price them apart).
struct MultiRoundStats {
  size_t rounds = 0;
  /// How many of `rounds` were machine→machine shuffles.
  size_t exchange_rounds = 0;
  /// Σ per-round SimulatedSeconds under the network given to Accumulate.
  double simulated_seconds = 0.0;
  /// Σ per-round max machine compute (the compute-only critical path).
  double max_machine_seconds = 0.0;
  double coordinator_seconds = 0.0;
  /// Coordinator ingress (gather rounds).
  CommStats comm;
  /// Machine→machine shuffle traffic (exchange rounds; self-sends excluded).
  CommStats shuffled;

  void Accumulate(const RoundMetrics& round, const NetworkModel& net);
};

/// A cluster of `n` simulated machines sharing this process's cores. One
/// round runs a caller-supplied task per machine on the shared ThreadPool
/// (tasks only time their own work, so n may far exceed the physical core
/// count), ships each machine's serialized payloads over the cluster's
/// Transport, and reports measured compute plus modeled network cost. A
/// gather round (RunRoundOn) ships one payload per machine to the
/// coordinator; an exchange round (RunExchange) ships one payload from every
/// machine to every machine. Both are the same round, run by one private
/// runner.
///
/// The Transport is where the bytes physically move: InProcessTransport
/// hands buffers over in memory (the historical behavior), TcpTransport
/// pushes every payload through real localhost sockets. Payloads, CommStats,
/// and results are bit-identical across backends (byte ledgers are computed
/// from payload sizes, never wire overhead).
///
/// Threading contract: rounds are safe to run from many threads at once on
/// one SimCluster, and from inside another round's machine task. All
/// per-round state (payloads, metrics, timers) is local to the call;
/// concurrent rounds on the shared Transport never mix frames (each round
/// gets a unique id). Each round runs its machine tasks in its own
/// ThreadPool::ParallelFor, which waits only on that call's tasks (see
/// thread_pool.h), so concurrent and nested rounds never wait on each other.
/// set_timer is configuration-time only: don't call it concurrently with a
/// round.
class SimCluster {
 public:
  /// Machine task: given the machine index, returns the payload that machine
  /// sends to the coordinator at the end of the round.
  using MachineTask = std::function<std::vector<uint8_t>(size_t machine)>;

  struct RoundResult {
    /// Payload of machine m at index m, independent of execution order.
    std::vector<std::vector<uint8_t>> payloads;
    RoundMetrics metrics;
    /// Transport round id (unique per kind per transport); the id trace
    /// spans of this round carry, so a timeline groups by it.
    uint64_t round_id = 0;
  };

  /// Exchange task: given the machine index, returns one outbound payload
  /// per destination machine (size must be num_machines(); entries may be
  /// empty, including the self-addressed one).
  using ExchangeTask =
      std::function<std::vector<std::vector<uint8_t>>(size_t machine)>;

  /// Result of one machine→machine shuffle round (the primitive behind
  /// DistributedPrecompute's locality-placement record shipping).
  struct ExchangeResult {
    /// inboxes[dst][src]: the payload machine src addressed to machine dst,
    /// independent of execution order.
    std::vector<std::vector<std::vector<uint8_t>>> inboxes;
    RoundMetrics metrics;
    /// Transport round id (see RoundResult::round_id).
    uint64_t round_id = 0;
  };

  /// What a machine's measured compute time charges. kWallClock, the
  /// default, charges elapsed time, as the paper's single-query-at-a-time
  /// experiments do. kThreadCpu charges only CPU actually consumed
  /// (CLOCK_THREAD_CPUTIME_ID), so machine_seconds does not count preemption
  /// by other rounds when concurrent rounds contend for the same physical
  /// cores — the serving layer's regime.
  enum class TimerKind { kWallClock, kThreadCpu };

  /// `sequential` runs machine tasks in machine order on the calling thread:
  /// fully deterministic (no scheduler interleaving), at the price of wall
  /// clock. Payloads and CommStats are deterministic in both modes as long as
  /// the task itself is; sequential mode additionally admits tasks that share
  /// mutable state across machines. `transport` picks where round payloads
  /// physically move (default: in-process).
  explicit SimCluster(size_t num_machines, NetworkModel network = {},
                      bool sequential = false, TransportOptions transport = {});

  size_t num_machines() const { return num_machines_; }
  const NetworkModel& network() const { return network_; }
  bool sequential() const { return sequential_; }
  TimerKind timer() const { return timer_; }
  void set_timer(TimerKind timer) { timer_ = timer; }
  /// Which backend this cluster's rounds actually travel over.
  TransportBackend transport_backend() const { return transport_->backend(); }

  /// Runs one gather round on `machines` (sorted, unique, non-empty subset
  /// of 0..n-1): `task(m)` for every listed machine m, each timed
  /// individually, and every payload travels machine → coordinator through
  /// the Transport. Non-participants pay no compute, send nothing, and
  /// charge no comm. The result keeps full-cluster indexing: payloads has
  /// num_machines() entries (empty for non-participants) and machine_seconds
  /// stays n-wide with zeros. The one ingress entry covers participants
  /// only; coordinator_seconds is left 0 for the caller's reduce phase.
  RoundResult RunRoundOn(std::span<const size_t> machines,
                         const MachineTask& task) const;

  /// RunRoundOn every machine.
  RoundResult RunRound(const MachineTask& task) const;

  /// Runs one machine→machine shuffle round: `task(m)` produces machine m's
  /// outbox, every payload travels p2p through the Transport, and each
  /// machine's inbox comes back indexed by source. coordinator_seconds is
  /// left 0 for the caller's ingest.
  ExchangeResult RunExchange(const ExchangeTask& task) const;

 private:
  /// The one round: runs `task(m)` for every machine m in `machines` — under
  /// the caller's trace context, in one span per machine on its own lane,
  /// timed by timer_, in machine order on the calling thread or on the
  /// pool — and sends the payload it returns for dsts[i] to endpoint
  /// dsts[i]. Sends happen while tasks run and receives only start after
  /// every task finished, so the round is deadlock-free in sequential mode
  /// and over real sockets alike. inboxes[i] holds what dsts[i] received,
  /// indexed by source, and metrics.ingress[i] prices it.
  ExchangeResult Run(std::span<const size_t> machines,
                     std::span<const size_t> dsts,
                     const ExchangeTask& task) const;

  size_t num_machines_;
  NetworkModel network_;
  bool sequential_;
  TimerKind timer_ = TimerKind::kWallClock;
  /// Shared (not per-round) so concurrent rounds reuse listeners and
  /// connections; copies of a SimCluster share one transport.
  std::shared_ptr<Transport> transport_;
};

}  // namespace dppr

#endif  // DPPR_DIST_CLUSTER_H_
