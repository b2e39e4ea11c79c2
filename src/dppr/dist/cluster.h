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

/// Measured + modeled cost of one communication round (all machines compute,
/// then every machine ships one payload to the coordinator, which reduces).
struct RoundMetrics {
  /// Measured compute time of each simulated machine's task.
  std::vector<double> machine_seconds;
  /// Coordinator-bound traffic (the paper's communication-cost metric). The
  /// one ledger of gather bytes and messages: QueryMetrics::comm and
  /// MultiRoundStats::comm read it, and no registry series copies it.
  CommStats to_coordinator;
  /// Measured coordinator reduce time (filled in by the caller).
  double coordinator_seconds = 0.0;

  double MaxMachineSeconds() const;

  /// End-to-end latency of the round under `net`: machines run in parallel
  /// (max compute), their sends serialize into the coordinator's link (total
  /// bytes at link bandwidth plus one latency per message), then the
  /// coordinator reduces. This is the paper's reported "runtime".
  double SimulatedSeconds(const NetworkModel& net) const;
};

/// Measured + modeled cost of one machine→machine shuffle round (all
/// machines compute their outboxes, then every p2p payload moves, then the
/// caller's reduce ingests).
struct ExchangeMetrics {
  /// Measured compute time of each machine's task (outbox construction).
  std::vector<double> machine_seconds;
  /// All n² p2p payloads, recorded in (dst, src) order. Every payload counts
  /// as one message even when empty, mirroring the gather path. Like
  /// to_coordinator, the one ledger of its traffic.
  CommStats exchanged;
  /// Off-machine traffic only (src != dst): a machine's self-addressed
  /// payload never crosses the network, so shuffle ledgers price exactly the
  /// records that actually moved.
  CommStats shuffled;
  /// `shuffled` split by destination; each machine's ingress link drains
  /// independently in the transfer model (p2p links are not the
  /// coordinator's shared ingress).
  std::vector<CommStats> ingress;
  /// Measured coordinator reduce (ingest) time, filled in by the caller.
  double coordinator_seconds = 0.0;

  double MaxMachineSeconds() const;

  /// End-to-end latency of the round under `net`: machines compute in
  /// parallel, then every destination's ingress drains in parallel (the
  /// slowest link gates the barrier), then the reduce.
  double SimulatedSeconds(const NetworkModel& net) const;
};

/// Accumulates RoundMetrics across the supersteps of a multi-round algorithm
/// (the BSP baseline pays one round per superstep; HGPA pays exactly one).
/// Exchange (p2p shuffle) rounds fold into the same report: they count into
/// `rounds`/`simulated_seconds` alongside gathers, with their traffic kept in
/// the distinct `shuffled` column (coordinator ingress and machine→machine
/// bytes are different links and the paper's tables price them apart).
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
  void AccumulateExchange(const ExchangeMetrics& round, const NetworkModel& net);
};

/// A cluster of `n` simulated machines sharing this process's cores. One
/// round runs a caller-supplied task per machine on the shared ThreadPool
/// (tasks only time their own work, so n may far exceed the physical core
/// count), ships each machine's serialized payload to the coordinator over
/// the cluster's Transport, and reports measured compute plus modeled
/// network cost.
///
/// The Transport is where the bytes physically move: InProcessTransport
/// hands buffers over in memory (the historical behavior), TcpTransport
/// pushes every payload through real localhost sockets. `DPPR_TRANSPORT=tcp`
/// flips the default for every cluster in the process; payloads, CommStats,
/// and results are bit-identical across backends (byte ledgers are computed
/// from payload sizes, never wire overhead).
///
/// Threading contract: RunRound/RunExchange are safe to call from many
/// threads at once on one SimCluster, and from inside another round's
/// machine task. All per-round state (payloads, metrics, timers) is local to
/// the call; concurrent rounds on the shared Transport never mix frames
/// (each round gets a unique id). The shared ThreadPool scopes each round's
/// machine tasks to a per-call task group — the pool's earlier single global
/// in-flight counter made one round's Wait block on every other round's
/// tasks and deadlocked nested rounds outright, which is why ThreadPool was
/// redesigned around TaskGroup (see thread_pool.h). The setters
/// (set_sequential, set_timer) are configuration-time only: don't flip them
/// concurrently with RunRound.
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
    ExchangeMetrics metrics;
    /// Transport round id (see RoundResult::round_id).
    uint64_t round_id = 0;
  };

  /// What a machine's measured compute time charges. kWallClock matches the
  /// paper's single-query-at-a-time experiments; kThreadCpu charges only CPU
  /// actually consumed (CLOCK_THREAD_CPUTIME_ID), so machine_seconds stays
  /// honest when concurrent rounds contend for the same physical cores — the
  /// serving layer's regime. Wall time is the default because it also counts
  /// involuntary preemption, which a dedicated real cluster would not suffer.
  enum class TimerKind { kWallClock, kThreadCpu };

  /// `sequential` runs machine tasks in machine order on the calling thread:
  /// fully deterministic (no scheduler interleaving), at the price of wall
  /// clock. Payloads and CommStats are deterministic in both modes as long as
  /// the task itself is; sequential mode additionally admits tasks that share
  /// mutable state across machines. `transport` picks where round payloads
  /// physically move (default: DPPR_TRANSPORT, else in-process).
  explicit SimCluster(size_t num_machines, NetworkModel network = {},
                      bool sequential = false,
                      TransportOptions transport = TransportOptions::FromEnv());

  size_t num_machines() const { return num_machines_; }
  const NetworkModel& network() const { return network_; }
  bool sequential() const { return sequential_; }
  void set_sequential(bool sequential) { sequential_ = sequential; }
  TimerKind timer() const { return timer_; }
  void set_timer(TimerKind timer) { timer_ = timer; }
  /// Which backend this cluster's rounds actually travel over.
  TransportBackend transport_backend() const { return transport_->backend(); }

  /// Runs one round on `machines` (sorted, unique, non-empty subset of
  /// 0..n-1): `task(m)` for every listed machine m, each timed individually,
  /// and every payload travels machine → coordinator through the Transport.
  /// Non-participants pay no compute, send nothing, and charge no comm. The
  /// result keeps full-cluster indexing: payloads has num_machines() entries
  /// (empty for non-participants) and machine_seconds stays n-wide with
  /// zeros. CommStats covers participants only, in machine order;
  /// coordinator_seconds is left 0 for the caller's reduce phase.
  RoundResult RunRoundOn(std::span<const size_t> machines,
                         const MachineTask& task) const;

  /// RunRoundOn every machine.
  RoundResult RunRound(const MachineTask& task) const;

  /// Multi-round convenience: runs one round, times `reduce` as the
  /// coordinator phase (stored into the round's coordinator_seconds), and
  /// folds the completed round into `stats` under this cluster's network
  /// model. Callers with no reduce work may pass a no-op.
  RoundResult RunRound(const MachineTask& task,
                       const std::function<void(RoundResult&)>& reduce,
                       MultiRoundStats* stats) const;

  /// Runs one machine→machine shuffle round: `task(m)` produces machine m's
  /// outbox, every payload travels p2p through the Transport, and each
  /// machine's inbox comes back indexed by source. Sends happen while tasks
  /// run and receives only start after every task finished, so the round is
  /// deadlock-free in sequential mode and over real sockets alike.
  ExchangeResult RunExchange(const ExchangeTask& task) const;

  /// Multi-round convenience mirroring the gather overload: runs one
  /// exchange round, times `reduce` as the coordinator phase, and folds the
  /// completed round into `stats` (rounds, exchange_rounds, shuffled bytes)
  /// under this cluster's network model.
  ExchangeResult RunExchange(const ExchangeTask& task,
                             const std::function<void(ExchangeResult&)>& reduce,
                             MultiRoundStats* stats) const;

 private:
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
