// End-to-end benchmark of the served tuning path: one process trains the
// standard model, starts a TuningServer behind the epoll/TCP front end on
// loopback, and drives it with at most four FrameClient connections.
//
//   bench_e2e --workload W --seed S --seconds T [--trace 0|1]
//             [--trace-file F.json] [--tmp DIR] [--scale F]
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the layer-by-layer traced replay instead (layers.cc). The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// e2ebench/README.md describes the workloads and every metric.
#include <malloc.h>
#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "layers.h"
#include "spans.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace cdbtune::e2e {
namespace {

constexpr int kClients = 4;

/// The served stack a run measures, and the model it adopted.
struct Setup {
  std::unique_ptr<StandardModel> model;
  std::unique_ptr<ServedStack> stack;
  std::vector<std::unique_ptr<Target>> clients;

  void Reset() {
    clients.clear();
    stack.reset();
    model.reset();
  }
};

/// Trains the model, starts the stack, connects the clients and opens the
/// workload's resident sessions (recover: plus its preparatory rounds).
bool SetUp(const RunArgs& args, const Plan& plan, Setup* setup,
           RunResult* result) {
  setup->model = std::make_unique<StandardModel>(
      TrainStandardModel(plan.offline_steps));
  setup->stack = std::make_unique<ServedStack>(args.workload, Level::kWire,
                                               setup->model->tuner.get());
  if (!setup->stack->ok()) {
    result->Check(false, "server start failed");
    return false;
  }
  const int clients = IsEpisodes(args.workload) ? kClients : 1;
  for (int i = 0; i < clients; ++i) {
    setup->clients.push_back(setup->stack->Connect());
  }
  CallLog log;
  const std::vector<Tenant> residents =
      ResidentTenants(args.workload, args.seed);
  bool ok = OpenResidents(*setup->clients[0], residents, &log);
  for (int64_t p = 0; ok && p < plan.prep_pairs; ++p) {
    ok = RunPair(*setup->clients[0], p, false, &log);
  }
  result->Count(log);
  result->Check(ok, "set-up requests failed");
  return ok;
}

double FileMb(const std::string& path) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Checkpoints the served state (untimed) and returns its size.
double CheckpointMb(Target& target, const std::string& path,
                    RunResult* result) {
  CallLog log;
  Reply saved = target.Save(path, -1);
  log.attempted = 1;
  log.failed = saved.ok ? 0 : 1;
  if (!saved.ok) log.errors.push_back(saved.payload);
  result->Count(log);
  return FileMb(path);
}

struct TimedPhase {
  CallLog log;
  double throughput = 0.0;
  double gain = 0.0;
  double ckpt_mb = 0.0;
};

TimedPhase RunEpisodesPhase(const RunArgs& args, const Plan& plan,
                            Setup& setup, RunResult* result) {
  const int64_t work = plan.Work(args.seconds);
  const int64_t end = plan.warmup + work;
  std::set<int64_t> sampled;
  {
    util::Rng rng(args.seed * 7919 + 13);
    for (size_t i : rng.SampleWithoutReplacement(
             static_cast<size_t>(work),
             static_cast<size_t>(std::min(plan.replay_sample, work)))) {
      sampled.insert(plan.warmup + static_cast<int64_t>(i));
    }
  }
  std::vector<double> gains(static_cast<size_t>(work), 0.0);
  std::vector<std::vector<std::string>> sampled_payloads(
      static_cast<size_t>(end));

  std::atomic<int64_t> next{0};
  std::vector<CallLog> logs(kClients);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      for (int64_t i = next.fetch_add(1); i < end; i = next.fetch_add(1)) {
        const bool timed = i >= plan.warmup;
        EpisodeResult r =
            RunEpisode(*setup.clients[t],
                       MakeTenant(args.workload, args.seed, i), timed, &logs[t]);
        if (!timed) continue;
        gains[i - plan.warmup] = r.gain;
        if (sampled.count(i) > 0) sampled_payloads[i] = std::move(r.payloads);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  TimedPhase phase;
  for (const CallLog& log : logs) phase.log.Merge(log);
  phase.throughput = WindowedRate(phase.log.op);
  double log_sum = 0.0;
  bool all_ok = true;
  for (double g : gains) {
    all_ok = all_ok && g > 0.0;
    log_sum += g > 0.0 ? std::log(g) : 0.0;
  }
  result->Check(all_ok, "a tenant did not finish its episode");
  phase.gain = std::exp(log_sum / static_cast<double>(gains.size()));

  // Replay the sampled tenants through a fresh single-thread in-process
  // server: every response must be byte-equal to the wire run's.
  util::ComputeContext::Get().SetThreads(1);
  {
    ServedStack replay(args.workload, Level::kDispatch,
                       setup.model->tuner.get());
    std::unique_ptr<Target> target = replay.Connect();
    CallLog log;
    for (int64_t i : sampled) {
      EpisodeResult r =
          RunEpisode(*target, MakeTenant(args.workload, args.seed, i), false,
                     &log);
      result->Check(r.payloads == sampled_payloads[i],
                    "tenant " + std::to_string(i) +
                        " replayed in-process differs from the wire run");
    }
    result->Count(log);
  }
  util::ComputeContext::Get().SetThreads(4);
  return phase;
}

TimedPhase RunRoundsPhase(const RunArgs& args, const Plan& plan, Setup& setup,
                          const std::string& path, RunResult* result) {
  Target& admin = *setup.clients[0];
  const size_t sessions = ResidentTenants(args.workload, args.seed).size();
  TimedPhase phase;
  bool ok = true;
  for (int64_t p = 0; ok && p < plan.warmup; ++p) {
    ok = RunPair(admin, p, false, &phase.log);
  }
  const std::vector<std::string> snapshot =
      SnapshotStatus(admin, sessions, &phase.log);
  phase.gain = GainFromStatus(snapshot);

  for (int64_t p = 0; ok && p < plan.Work(args.seconds); ++p) {
    ok = RunPair(admin, plan.warmup + p, true, &phase.log);
  }
  phase.throughput = WindowedRate(phase.log.op);
  for (size_t id = 0; id < sessions; ++id) {
    const bool closed =
        admin.Close(static_cast<int>(id), static_cast<int64_t>(id)).ok;
    ++phase.log.attempted;
    phase.log.failed += closed ? 0 : 1;
    ok = closed && ok;
  }
  result->Check(ok, "a ROUND, TRAIN or CLOSE failed");

  // The snapshot after the warm-up pairs must equal an in-process replay of
  // the same requests at one thread.
  util::ComputeContext::Get().SetThreads(1);
  {
    ServedStack replay(args.workload, Level::kDispatch,
                       setup.model->tuner.get());
    std::unique_ptr<Target> target = replay.Connect();
    CallLog log;
    bool replay_ok =
        OpenResidents(*target, ResidentTenants(args.workload, args.seed), &log);
    for (int64_t p = 0; replay_ok && p < plan.warmup; ++p) {
      replay_ok = RunPair(*target, p, false, &log);
    }
    result->Check(replay_ok && SnapshotStatus(*target, sessions, &log) ==
                                   snapshot,
                  "STATUS after the warm-up pairs differs from a 1-thread "
                  "in-process replay");
    result->Count(log);
    // The checkpoint is sized at the snapshot point, whose state the replay
    // has just shown equal to the wire server's.
    phase.ckpt_mb = CheckpointMb(*target, path, result);
  }
  util::ComputeContext::Get().SetThreads(4);
  return phase;
}

TimedPhase RunRecoverPhase(const RunArgs& args, const Plan& plan,
                           Setup& setup, const std::string& path,
                           RunResult* result) {
  Target& source = *setup.clients[0];
  const size_t sessions = ResidentTenants(args.workload, args.seed).size();
  TimedPhase phase;
  const std::vector<std::string> expected =
      SnapshotStatus(source, sessions, &phase.log);
  phase.gain = GainFromStatus(expected);

  // Starting each fresh restore target and checking it are untimed; the
  // rate is cycles per second of SAVE+RESTORE time.
  double busy_us = 0.0;
  int64_t timed_cycles = 0;
  for (int64_t c = 0; c < plan.warmup + plan.Work(args.seconds); ++c) {
    const bool timed = c >= plan.warmup;
    // Each restore target stands for a fresh process: hand back what the
    // previous one left in per-thread malloc arenas, so rss_peak_mb does
    // not depend on which worker threads served the earlier cycles.
    malloc_trim(0);
    ServedStack fresh(args.workload, Level::kWire, nullptr);
    if (!fresh.ok()) {
      result->Check(false, "restore target failed to start");
      break;
    }
    std::unique_ptr<Target> target = fresh.Connect();
    CallLog& log = phase.log;
    if (!RunCycle(source, *target, path, c, timed, &log)) break;
    if (timed) {
      busy_us += log.op.us.back();
      ++timed_cycles;
    }
    result->Check(SnapshotStatus(*target, sessions, &log) == expected,
                  "restored STATUS differs from the source server's");
  }
  phase.throughput = busy_us > 0 ? timed_cycles / (busy_us / 1e6) : 0.0;
  return phase;
}

RunResult RunEndToEnd(const RunArgs& args) {
  const Plan plan = MakePlan(args.workload, args.scale);
  RunResult result;
  Setup setup;
  std::vector<double> setup_s;
  for (int rep = 0; rep < plan.setup_reps; ++rep) {
    setup.Reset();
    malloc_trim(0);  // As in a fresh process; see RunRecoverPhase.
    const Clock::time_point start = Clock::now();
    if (!SetUp(args, plan, &setup, &result)) return result;
    setup_s.push_back(ElapsedUs(start) / 1e6);
  }

  const std::string ckpt = args.tmp_dir + "/ckpt";
  TimedPhase phase;
  switch (args.workload) {
    case Workload::kEpisodesSim:
    case Workload::kEpisodesMini:
      phase = RunEpisodesPhase(args, plan, setup, &result);
      phase.ckpt_mb = CheckpointMb(*setup.clients[0], ckpt, &result);
      break;
    case Workload::kRoundsTrain:
      phase = RunRoundsPhase(args, plan, setup, ckpt, &result);
      break;
    case Workload::kRecover:
      phase = RunRecoverPhase(args, plan, setup, ckpt, &result);
      phase.ckpt_mb = FileMb(ckpt);
      break;
  }
  result.Count(phase.log);
  result.Check(phase.log.failed == 0, "requests failed");

  const Summary op = SummarizeWindowed(phase.log.op);
  const Summary req = SummarizeWindowed(phase.log.req);
  std::printf("# %s: %zu ops (tail p%.2f), %zu characteristic requests "
              "(tail p%.2f), setup reps %zu\n",
              WorkloadName(args.workload), op.n, op.tail_pct, req.n,
              req.tail_pct, setup_s.size());
  MetricSet& m = result.metrics;
  m.Set("setup_s", Median(setup_s), "s");
  m.Set("throughput_per_s", phase.throughput, "1/s");
  m.Set("op_p50_ms", op.p50 / 1e3, "ms");
  m.Set("op_tail_ms", op.tail / 1e3, "ms");
  m.Set("req_p50_ms", req.p50 / 1e3, "ms");
  m.Set("req_tail_ms", req.tail / 1e3, "ms");
  m.Set("tps_gain", phase.gain, "ratio");
  m.Set("ckpt_mb", phase.ckpt_mb, "MB");
  m.Set("rss_peak_mb", PeakRssMb(), "MB");
  return result;
}

void PrintResult(const RunArgs& args, const RunResult& result) {
  for (const std::string& problem : result.problems) {
    std::printf("# problem: %s\n", problem.c_str());
  }
  for (const auto& [name, value] : result.metrics.values()) {
    std::printf("%s %s %.10g %s\n", WorkloadName(args.workload), name.c_str(),
                value.first, value.second.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  for (const auto& [name, value] : result.metrics.values()) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value.first,
                value.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "episodes_sim|episodes_mini|rounds_train|recover --seed N "
               "--seconds T [--trace 0|1] [--trace-file F] [--tmp DIR] "
               "[--scale F]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace cdbtune::e2e

int main(int argc, char** argv) {
  using namespace cdbtune::e2e;
  RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args.workload)) {
        return Usage(("unknown workload " + value).c_str());
      }
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else if (flag == "--tmp") {
      args.tmp_dir = value;
    } else if (flag == "--scale") {
      args.scale = std::atof(value.c_str());
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (args.seconds <= 0.0) return Usage("--seconds must be positive");
  if (args.scale <= 0.0 || args.scale > 1.0) {
    return Usage("--scale must be in (0, 1]");
  }
  if (args.tmp_dir.empty()) args.tmp_dir = ".bench_build/e2ebench/tmp";
  std::error_code ec;
  std::filesystem::create_directories(args.tmp_dir, ec);
  if (ec) return Usage(("cannot create " + args.tmp_dir).c_str());

  cdbtune::util::ComputeContext::Get().SetThreads(4);
  const RunResult result = args.trace ? RunTraced(args) : RunEndToEnd(args);
  PrintResult(args, result);
  return 0;
}
