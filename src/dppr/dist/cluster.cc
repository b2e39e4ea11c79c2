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
/// atomics. CommStats in RoundMetrics and these counters are charged from
/// the same gathered payload sizes, so the registry rollup and the per-round
/// struct can never disagree.
struct ClusterMetrics {
  obs::Counter* gather_rounds;
  obs::Counter* gather_bytes;
  obs::Counter* gather_messages;
  obs::Counter* exchange_rounds;
  obs::Counter* exchange_bytes;
  obs::Counter* exchange_messages;
  obs::Histogram* machine_task_us;
  obs::Histogram* reduce_us;

  static const ClusterMetrics& Get() {
    static const ClusterMetrics metrics = [] {
      auto& r = obs::MetricsRegistry::Global();
      return ClusterMetrics{r.GetCounter("cluster.gather.rounds"),
                            r.GetCounter("cluster.gather.bytes"),
                            r.GetCounter("cluster.gather.messages"),
                            r.GetCounter("cluster.exchange.rounds"),
                            r.GetCounter("cluster.exchange.bytes"),
                            r.GetCounter("cluster.exchange.messages"),
                            r.GetHistogram("cluster.machine_task_us"),
                            r.GetHistogram("cluster.reduce_us")};
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

double RoundMetrics::SimulatedSeconds(const NetworkModel& net) const {
  // Σ over messages of TransferSeconds(bytes_i), folded into aggregate form:
  // all coordinator-bound sends share the coordinator's ingress link.
  double transfer =
      static_cast<double>(to_coordinator.bytes) / net.bandwidth_bytes_per_sec +
      static_cast<double>(to_coordinator.messages) * net.latency_seconds;
  return MaxMachineSeconds() + transfer + coordinator_seconds;
}

double ExchangeMetrics::MaxMachineSeconds() const {
  double max = 0.0;
  for (double s : machine_seconds) max = std::max(max, s);
  return max;
}

double ExchangeMetrics::SimulatedSeconds(const NetworkModel& net) const {
  // Destinations drain their ingress links in parallel; the round's barrier
  // waits for the slowest one.
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
  comm += round.to_coordinator;
}

void MultiRoundStats::AccumulateExchange(const ExchangeMetrics& round,
                                         const NetworkModel& net) {
  ++rounds;
  ++exchange_rounds;
  simulated_seconds += round.SimulatedSeconds(net);
  max_machine_seconds += round.MaxMachineSeconds();
  coordinator_seconds += round.coordinator_seconds;
  shuffled += round.shuffled;
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
  DPPR_CHECK_GE(machines.size(), 1u);
  for (size_t i = 0; i < machines.size(); ++i) {
    DPPR_CHECK_LT(machines[i], num_machines_);
    if (i > 0) DPPR_CHECK_LT(machines[i - 1], machines[i]);
  }
  const uint64_t round = transport_->AllocateRound(FrameKind::kGather);
  RoundResult result;
  result.round_id = round;
  result.metrics.machine_seconds.assign(num_machines_, 0.0);

  // Machine tasks run on pool threads; re-establish the caller's (query's)
  // trace context there so machine/store/net spans and outgoing frame
  // headers stay attributed to the query that triggered the round.
  const obs::TraceContext trace_ctx = obs::CurrentTraceContext();
  auto run_machine = [&](size_t index) {
    obs::TraceContextScope ctx_scope(trace_ctx);
    const size_t machine = machines[index];
    // One span per machine superstep, on the machine's own timeline lane:
    // covers compute and the send, so gaps between spans are queueing.
    obs::TraceSpan span(obs::MachineLane(machine), "cluster.machine");
    span.Arg("round", round);
    span.Arg("machine", machine);
    std::vector<uint8_t> payload;
    result.metrics.machine_seconds[machine] =
        RunTimed(timer_, [&] { payload = task(machine); });
    // The send sits outside the machine timer: machine_seconds charges task
    // compute only, so measured compute stays comparable across transport
    // backends (the socket tax shows up in wall clock and benches instead).
    transport_->SendToCoordinator(round, machine, std::move(payload));
  };

  if (sequential_ || machines.size() == 1) {
    // Sends complete before the gather starts; the transport buffers them
    // (in-process mailbox / kernel socket buffers drained by the receive
    // loop), so sequential mode cannot deadlock.
    for (size_t i = 0; i < machines.size(); ++i) run_machine(i);
  } else {
    ThreadPool::Default().ParallelFor(machines.size(), run_machine);
  }

  result.payloads = transport_->GatherRound(round, machines.size());
  DPPR_CHECK_EQ(result.payloads.size(), num_machines_);
  // Only participants' payloads exist; charge them in machine order so
  // CommStats is independent of which worker finished first.
  for (size_t machine : machines) {
    result.metrics.to_coordinator.Record(result.payloads[machine].size());
  }
  const ClusterMetrics& metrics = ClusterMetrics::Get();
  metrics.gather_rounds->Increment();
  metrics.gather_bytes->Add(result.metrics.to_coordinator.bytes);
  metrics.gather_messages->Add(result.metrics.to_coordinator.messages);
  for (size_t machine : machines) {
    metrics.machine_task_us->Record(static_cast<uint64_t>(
        result.metrics.machine_seconds[machine] * 1e6));
  }
  return result;
}

SimCluster::RoundResult SimCluster::RunRound(
    const MachineTask& task, const std::function<void(RoundResult&)>& reduce,
    MultiRoundStats* stats) const {
  DPPR_CHECK(stats != nullptr);
  RoundResult result = RunRound(task);
  if (reduce != nullptr) {
    obs::TraceSpan span(obs::kCoordinatorLane, "cluster.reduce");
    span.Arg("round", result.round_id);
    WallTimer timer;
    reduce(result);
    result.metrics.coordinator_seconds = timer.ElapsedSeconds();
    ClusterMetrics::Get().reduce_us->Record(
        static_cast<uint64_t>(result.metrics.coordinator_seconds * 1e6));
  }
  stats->Accumulate(result.metrics, network_);
  return result;
}

SimCluster::ExchangeResult SimCluster::RunExchange(const ExchangeTask& task) const {
  DPPR_CHECK(task != nullptr);
  const uint64_t round = transport_->AllocateRound(FrameKind::kExchange);
  ExchangeResult result;
  result.round_id = round;
  result.metrics.machine_seconds.assign(num_machines_, 0.0);

  const obs::TraceContext trace_ctx = obs::CurrentTraceContext();
  auto run_machine = [&](size_t machine) {
    obs::TraceContextScope ctx_scope(trace_ctx);
    obs::TraceSpan span(obs::MachineLane(machine), "cluster.exchange.machine");
    span.Arg("round", round);
    span.Arg("machine", machine);
    std::vector<std::vector<uint8_t>> outbox;
    result.metrics.machine_seconds[machine] =
        RunTimed(timer_, [&] { outbox = task(machine); });
    DPPR_CHECK_EQ(outbox.size(), num_machines_);
    for (size_t dst = 0; dst < num_machines_; ++dst) {
      transport_->SendToMachine(round, machine, dst, std::move(outbox[dst]));
    }
  };

  if (sequential_ || num_machines_ == 1) {
    for (size_t machine = 0; machine < num_machines_; ++machine) {
      run_machine(machine);
    }
  } else {
    ThreadPool::Default().ParallelFor(num_machines_, run_machine);
  }

  // All sends are complete, so the receives below can never wait on a task
  // that has not run yet — the exchange is a barrier, like a BSP superstep.
  result.inboxes.resize(num_machines_);
  result.metrics.ingress.assign(num_machines_, CommStats{});
  for (size_t dst = 0; dst < num_machines_; ++dst) {
    result.inboxes[dst] = transport_->ReceiveExchange(round, dst);
    DPPR_CHECK_EQ(result.inboxes[dst].size(), num_machines_);
  }
  for (size_t dst = 0; dst < num_machines_; ++dst) {
    for (size_t src = 0; src < num_machines_; ++src) {
      size_t size = result.inboxes[dst][src].size();
      result.metrics.exchanged.Record(size);
      if (src != dst) result.metrics.ingress[dst].Record(size);
    }
    result.metrics.shuffled += result.metrics.ingress[dst];
  }
  const ClusterMetrics& metrics = ClusterMetrics::Get();
  metrics.exchange_rounds->Increment();
  metrics.exchange_bytes->Add(result.metrics.exchanged.bytes);
  metrics.exchange_messages->Add(result.metrics.exchanged.messages);
  for (double s : result.metrics.machine_seconds) {
    metrics.machine_task_us->Record(static_cast<uint64_t>(s * 1e6));
  }
  return result;
}

SimCluster::ExchangeResult SimCluster::RunExchange(
    const ExchangeTask& task,
    const std::function<void(ExchangeResult&)>& reduce,
    MultiRoundStats* stats) const {
  DPPR_CHECK(stats != nullptr);
  ExchangeResult result = RunExchange(task);
  if (reduce != nullptr) {
    obs::TraceSpan span(obs::kCoordinatorLane, "cluster.reduce");
    span.Arg("round", result.round_id);
    WallTimer timer;
    reduce(result);
    result.metrics.coordinator_seconds = timer.ElapsedSeconds();
    ClusterMetrics::Get().reduce_us->Record(
        static_cast<uint64_t>(result.metrics.coordinator_seconds * 1e6));
  }
  stats->AccumulateExchange(result.metrics, network_);
  return result;
}

}  // namespace dppr
