// Reproduces the Section 5.1.1 execution-time breakdown with
// google-benchmark: the per-step costs of the tuning loop measured on this
// implementation — metrics collection, model update (one DDPG minibatch),
// recommendation (actor forward pass) and configuration deployment — plus
// the design-choice ablation of uniform vs. prioritized replay sampling.
//
// Paper reference points (on their testbed): metrics collection 0.86 ms,
// model update 28.76 ms, recommendation 2.16 ms, deployment 16.68 s (real
// server restart; ours is a simulated instance so only the software-side
// cost appears), stress test 152.88 s (wall time by definition of the
// test; simulated here).
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include "env/simulated_cdb.h"
#include "rl/ddpg.h"
#include "rl/replay.h"
#include "tuner/cdbtune.h"
#include "tuner/metrics_collector.h"

namespace cdbtune {
namespace {

rl::DdpgOptions PaperDdpg() {
  rl::DdpgOptions o;
  o.state_dim = 63;
  o.action_dim = 266;
  return o;
}

rl::Transition RandomTransition(util::Rng& rng) {
  rl::Transition t;
  t.state.resize(63);
  t.action.resize(266);
  t.next_state.resize(63);
  for (double& v : t.state) v = rng.Gaussian();
  for (double& v : t.action) v = rng.Uniform();
  for (double& v : t.next_state) v = rng.Gaussian();
  t.reward = rng.Gaussian();
  return t;
}

void BM_MetricsCollection(benchmark::State& state) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA());
  tuner::MetricsCollector collector;
  auto result = db->RunStress(workload::SysbenchReadWrite(), 150.0).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(collector.Process(result));
  }
}
BENCHMARK(BM_MetricsCollection);

void BM_ModelUpdate(benchmark::State& state) {
  rl::DdpgAgent agent(PaperDdpg());
  util::Rng rng(1);
  for (int i = 0; i < 256; ++i) agent.Observe(RandomTransition(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.TrainStep());
  }
}
BENCHMARK(BM_ModelUpdate)->Unit(benchmark::kMillisecond);

void BM_Recommendation(benchmark::State& state) {
  rl::DdpgAgent agent(PaperDdpg());
  std::vector<double> s(63, 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.SelectAction(s, nullptr));
  }
}
BENCHMARK(BM_Recommendation)->Unit(benchmark::kMicrosecond);

void BM_Deployment(benchmark::State& state) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA());
  knobs::Config config = db->registry().DefaultConfig();
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->ApplyConfig(config));
  }
}
BENCHMARK(BM_Deployment)->Unit(benchmark::kMicrosecond);

void BM_SimulatedStressTest(benchmark::State& state) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA());
  auto spec = workload::SysbenchReadWrite();
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->RunStress(spec, 150.0));
  }
}
BENCHMARK(BM_SimulatedStressTest)->Unit(benchmark::kMicrosecond);

// --- Ablation: replay sampling structures (Section 5.1: prioritized
// replay doubles convergence speed; its per-sample cost must stay small).
template <typename ReplayT>
void BM_ReplaySample(benchmark::State& state) {
  ReplayT replay(100000);
  util::Rng rng(2);
  for (int i = 0; i < 50000; ++i) replay.Add(RandomTransition(rng));
  for (auto _ : state) {
    auto batch = replay.Sample(32, rng);
    benchmark::DoNotOptimize(batch);
    if constexpr (std::is_same_v<ReplayT, rl::PrioritizedReplay>) {
      std::vector<double> errors(batch.indices.size(), 0.5);
      replay.UpdatePriorities(batch.indices, errors);
    }
  }
}
BENCHMARK(BM_ReplaySample<rl::UniformReplay>)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ReplaySample<rl::PrioritizedReplay>)
    ->Unit(benchmark::kMicrosecond);

void BM_ActorCriticForwardBatch(benchmark::State& state) {
  rl::DdpgAgent agent(PaperDdpg());
  std::vector<double> s(63, 0.1);
  std::vector<double> a(266, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.EstimateQ(s, a));
  }
}
BENCHMARK(BM_ActorCriticForwardBatch)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cdbtune

// Custom main instead of BENCHMARK_MAIN(): records host/environment
// metadata (load average, CPU model, SIMD tier, thread count) into the
// JSON context so saved reports are self-describing.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  cdbtune::bench::AddBenchEnvironmentContext();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
