#include "dppr/dist/cluster.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "dppr/common/macros.h"
#include "dppr/common/thread_pool.h"
#include "dppr/common/timer.h"
#include "dppr/obs/metrics.h"
#include "dppr/obs/trace.h"

namespace dppr {
namespace {

/// Registry handles resolved once; afterwards every round touches only
/// atomics. Bytes and messages are not here: RoundMetrics::ingress is their
/// one ledger.
struct ClusterMetrics {
  obs::Counter* gather_rounds;
  obs::Histogram* machine_task_us;

  static const ClusterMetrics& Get() {
    static const ClusterMetrics metrics = [] {
      auto& r = obs::MetricsRegistry::Global();
      return ClusterMetrics{r.GetCounter("cluster.gather.rounds"),
                            r.GetHistogram("cluster.machine_task_us")};
    }();
    return metrics;
  }
};

/// Runs `fn` under the configured machine timer and returns its seconds.
template <typename Fn>
double RunTimed(SimCluster::TimerKind kind, const Fn& fn) {
  if (kind == SimCluster::TimerKind::kThreadCpu) {
    ThreadCpuTimer timer;
    fn();
    return timer.ElapsedSeconds();
  }
  WallTimer timer;
  fn();
  return timer.ElapsedSeconds();
}

}  // namespace

double RoundMetrics::MaxMachineSeconds() const {
  double max = 0.0;
  for (double s : machine_seconds) max = std::max(max, s);
  return max;
}

CommStats RoundMetrics::Traffic() const {
  CommStats total;
  for (const CommStats& in : ingress) total += in;
  return total;
}

double RoundMetrics::SimulatedSeconds(const NetworkModel& net) const {
  // Σ over messages of TransferSeconds(bytes_i), folded into aggregate form
  // per destination: all sends to one destination share its ingress link.
  // Destinations drain in parallel, so the slowest link gates the barrier;
  // a gather's one link prices exactly as the coordinator's alone, since
  // max(0.0, t) == t.
  double slowest_link = 0.0;
  for (const CommStats& in : ingress) {
    double t = static_cast<double>(in.bytes) / net.bandwidth_bytes_per_sec +
               static_cast<double>(in.messages) * net.latency_seconds;
    slowest_link = std::max(slowest_link, t);
  }
  return MaxMachineSeconds() + slowest_link + coordinator_seconds;
}

void MultiRoundStats::Accumulate(const RoundMetrics& round,
                                 const NetworkModel& net) {
  ++rounds;
  simulated_seconds += round.SimulatedSeconds(net);
  max_machine_seconds += round.MaxMachineSeconds();
  coordinator_seconds += round.coordinator_seconds;
  if (round.kind == FrameKind::kExchange) {
    ++exchange_rounds;
    shuffled += round.Traffic();
  } else {
    comm += round.Traffic();
  }
}

SimCluster::SimCluster(size_t num_machines, NetworkModel network,
                       bool sequential, TransportOptions transport)
    : num_machines_(num_machines),
      network_(network),
      sequential_(sequential),
      transport_(MakeTransport(num_machines, transport)) {
  DPPR_CHECK_GE(num_machines, 1u);
}

SimCluster::RoundResult SimCluster::RunRound(const MachineTask& task) const {
  std::vector<size_t> all(num_machines_);
  std::iota(all.begin(), all.end(), size_t{0});
  return RunRoundOn(all, task);
}

SimCluster::RoundResult SimCluster::RunRoundOn(std::span<const size_t> machines,
                                               const MachineTask& task) const {
  DPPR_CHECK(task != nullptr);
  const size_t coordinator = transport_->coordinator_endpoint();
  ExchangeResult round = Run(machines, {&coordinator, 1}, [&](size_t machine) {
    std::vector<std::vector<uint8_t>> outbox(1);
    outbox[0] = task(machine);
    return outbox;
  });
  return RoundResult{std::move(round.inboxes[0]), std::move(round.metrics),
                     round.round_id};
}

SimCluster::ExchangeResult SimCluster::RunExchange(const ExchangeTask& task) const {
  DPPR_CHECK(task != nullptr);
  std::vector<size_t> all(num_machines_);
  std::iota(all.begin(), all.end(), size_t{0});
  return Run(all, all, task);
}

SimCluster::ExchangeResult SimCluster::Run(std::span<const size_t> machines,
                                           std::span<const size_t> dsts,
                                           const ExchangeTask& task) const {
  DPPR_CHECK_GE(machines.size(), 1u);
  for (size_t i = 0; i < machines.size(); ++i) {
    DPPR_CHECK_LT(machines[i], num_machines_);
    if (i > 0) DPPR_CHECK_LT(machines[i - 1], machines[i]);
  }
  // A round's destinations are the coordinator alone or machines only, so
  // the round has one kind and one id.
  const FrameKind kind = transport_->KindFor(dsts[0]);
  for (size_t dst : dsts) DPPR_CHECK(transport_->KindFor(dst) == kind);
  const uint64_t round = transport_->AllocateRound(kind);
  const char* const span_name = kind == FrameKind::kGather
                                    ? "cluster.machine"
                                    : "cluster.exchange.machine";
  ExchangeResult result;
  result.round_id = round;
  result.metrics.kind = kind;
  result.metrics.machine_seconds.assign(num_machines_, 0.0);

  // Machine tasks run on pool threads; re-establish the caller's (query's)
  // trace context there so machine/store/net spans stay attributed to the
  // query that triggered the round. The context rides the thread, not the
  // frames.
  const obs::TraceContext trace_ctx = obs::CurrentTraceContext();
  auto run_machine = [&](size_t index) {
    obs::TraceContextScope ctx_scope(trace_ctx);
    const size_t machine = machines[index];
    // One span per machine superstep, on the machine's own timeline lane:
    // covers compute and the sends, so gaps between spans are queueing.
    obs::TraceSpan span(obs::MachineLane(machine), span_name);
    span.Arg("round", round);
    span.Arg("machine", machine);
    std::vector<std::vector<uint8_t>> outbox;
    result.metrics.machine_seconds[machine] =
        RunTimed(timer_, [&] { outbox = task(machine); });
    DPPR_CHECK_EQ(outbox.size(), dsts.size());
    // The sends sit outside the machine timer: machine_seconds charges task
    // compute only, so measured compute stays comparable across transport
    // backends (the socket tax shows up in wall clock and benches instead).
    for (size_t i = 0; i < dsts.size(); ++i) {
      transport_->Send(round, machine, dsts[i], std::move(outbox[i]));
    }
  };

  if (sequential_ || machines.size() == 1) {
    // Sends complete before the receives start; the transport buffers them
    // (in-process mailbox / kernel socket buffers drained by the receive
    // loop), so sequential mode cannot deadlock.
    for (size_t i = 0; i < machines.size(); ++i) run_machine(i);
  } else {
    ThreadPool::Default().ParallelFor(machines.size(), run_machine);
  }

  // All sends are complete, so no receive below can wait on a task that has
  // not run yet — the round is a barrier, like a BSP superstep. Charge each
  // destination's payloads in machine order, so CommStats is independent of
  // which worker finished first.
  result.inboxes.resize(dsts.size());
  result.metrics.ingress.assign(dsts.size(), CommStats{});
  for (size_t i = 0; i < dsts.size(); ++i) {
    result.inboxes[i] = transport_->Receive(round, dsts[i], machines.size());
    DPPR_CHECK_EQ(result.inboxes[i].size(), num_machines_);
    for (size_t src : machines) {
      if (src != dsts[i]) {
        result.metrics.ingress[i].Record(result.inboxes[i][src].size());
      }
    }
  }
  const ClusterMetrics& metrics = ClusterMetrics::Get();
  if (kind == FrameKind::kGather) metrics.gather_rounds->Increment();
  for (size_t machine : machines) {
    metrics.machine_task_us->Record(static_cast<uint64_t>(
        result.metrics.machine_seconds[machine] * 1e6));
  }
  return result;
}

}  // namespace dppr
