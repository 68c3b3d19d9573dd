#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <thread>
#include <utility>

#include "engine/mini_cdb.h"
#include "env/metrics.h"
#include "nn/matrix.h"
#include "persist/atomic_file.h"
#include "rl/ddpg.h"
#include "rl/noise.h"
#include "server/protocol.h"
#include "tuner/tuning_session.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace cdbtune::e2e {
namespace {

constexpr int kThreads = 4;
// TuningServer seeds a session's exploration stream with spec.seed ^ this
// salt (the DdpgAgent derivation); level 4 does the same so its sessions
// reproduce the server's trajectories bitwise.
constexpr uint64_t kNoiseSeedSalt = 0x9E3779B97F4A7C15ULL;

/// One replay of the workload's request stream at one entry point.
struct LevelRun {
  CallLog log;
  uint64_t digest = 0;
  /// Episodes: each tenant's responses, by tenant index.
  std::vector<std::vector<std::string>> tenant_payloads;
  server::TransportStats transport;
  Summary ping;
};

uint64_t DigestAll(const std::vector<std::string>& payloads) {
  uint64_t h = Digest("");
  for (const std::string& p : payloads) h = Digest(p + "\n", h);
  return h;
}

/// Tenants for the layer probes: the first `count` of the workload's
/// residents, or of its episode tenants, with a budget of `steps`.
std::vector<Tenant> ProbeTenants(const RunArgs& args, size_t count,
                                 int steps) {
  std::vector<Tenant> tenants = ResidentTenants(args.workload, args.seed);
  if (tenants.empty()) {
    for (size_t i = 0; i < count; ++i) {
      tenants.push_back(
          MakeTenant(args.workload, args.seed, static_cast<int64_t>(i)));
    }
  }
  if (tenants.size() > count) tenants.resize(count);
  for (Tenant& t : tenants) t.spec.max_steps = steps;
  return tenants;
}

LevelRun ReplayStream(const RunArgs& args, const Plan& plan, Level level,
                      tuner::CdbTuner* model, const std::string& path,
                      RunResult* result) {
  LevelRun run;
  ServedStack stack(args.workload, level, model);
  if (!stack.ok()) {
    result->Check(false, "stack failed to start");
    return run;
  }
  std::vector<std::string> digested;
  if (IsEpisodes(args.workload)) {
    run.tenant_payloads.resize(static_cast<size_t>(plan.trace_work));
    std::atomic<int64_t> next{0};
    std::vector<CallLog> logs(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::unique_ptr<Target> target = stack.Connect();
        for (int64_t i = next.fetch_add(1); i < plan.trace_work;
             i = next.fetch_add(1)) {
          EpisodeResult r = RunEpisode(
              *target, MakeTenant(args.workload, args.seed, i), true, &logs[t]);
          run.tenant_payloads[static_cast<size_t>(i)] = std::move(r.payloads);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (const CallLog& log : logs) run.log.Merge(log);
    for (const auto& payloads : run.tenant_payloads) {
      digested.insert(digested.end(), payloads.begin(), payloads.end());
    }
  } else {
    std::unique_ptr<Target> target = stack.Connect();
    const std::vector<Tenant> residents =
        ResidentTenants(args.workload, args.seed);
    bool ok = OpenResidents(*target, residents, &run.log);
    if (args.workload == Workload::kRoundsTrain) {
      for (int64_t p = 0; ok && p < plan.trace_work; ++p) {
        ok = RunPair(*target, p, true, &run.log);
      }
      digested = SnapshotStatus(*target, residents.size(), &run.log);
    } else {
      for (int64_t p = 0; ok && p < plan.prep_pairs; ++p) {
        ok = RunPair(*target, p, false, &run.log);
      }
      digested = SnapshotStatus(*target, residents.size(), &run.log);
      for (int64_t c = 0; ok && c < plan.trace_work; ++c) {
        ServedStack fresh(args.workload, level, nullptr);
        std::unique_ptr<Target> restored = fresh.Connect();
        ok = RunCycle(*target, *restored, path, c, true, &run.log);
        const std::vector<std::string> status =
            SnapshotStatus(*restored, residents.size(), &run.log);
        digested.insert(digested.end(), status.begin(), status.end());
      }
    }
    result->Check(ok, std::string("level ") +
                          std::to_string(static_cast<int>(level)) +
                          " stream failed");
  }
  run.digest = DigestAll(digested);

  if (level == Level::kWire) {
    std::unique_ptr<Target> target = stack.Connect();
    std::vector<double> pings;
    for (int i = 0; i < plan.pings; ++i) {
      const Clock::time_point t = Clock::now();
      result->Check(target->Ping().ok, "PING failed");
      pings.push_back(ElapsedUs(t));
    }
    run.ping = Summarize(pings);
    run.transport = stack.tcp()->Scrape();
  }
  return run;
}

// --- Level 3 probe: rounds at 4 vs 1 threads, checkpoint and restore ------

struct ProbeTimes {
  std::vector<double> round_us[2];  // [0] = 4 threads, [1] = 1 thread.
  std::vector<double> load_us, agent_restore_us, restore_us;
};

ProbeTimes RoundAndPersistProbe(const RunArgs& args, const Plan& plan,
                                tuner::CdbTuner* model,
                                const std::string& path, RunResult* result) {
  ProbeTimes times;
  // Mini sessions replay every engine call on restore; four keep it short.
  const size_t count = args.workload == Workload::kEpisodesMini ? 4 : 16;
  const std::vector<Tenant> tenants = ProbeTenants(args, count, 1 << 24);
  // The first pairs fill the agent's replay past one training batch, so
  // the timed TRAINs do real gradient steps.
  constexpr int kWarmPairs = 8;
  constexpr int kPairs = 5;
  std::vector<std::string> snapshots[2];
  for (int pass = 0; pass < 2; ++pass) {
    util::ComputeContext::Get().SetThreads(pass == 0 ? kThreads : 1);
    SpanRecorder::Get().Enable(false);
    ServedStack stack(args.workload, Level::kServer, model);
    std::unique_ptr<Target> target = stack.Connect();
    CallLog log;
    bool ok = true;
    for (const Tenant& t : tenants) ok = target->Open(t).ok && ok;
    for (int p = 0; ok && p < kWarmPairs + kPairs; ++p) {
      // The 1-thread pass is a reference, not a sample of the served path.
      SpanRecorder::Get().Enable(pass == 0 && p >= kWarmPairs);
      const Clock::time_point t = Clock::now();
      ok = target->Round(p).ok;
      if (p >= kWarmPairs) times.round_us[pass].push_back(ElapsedUs(t));
      ok = target->Train(p).ok && ok;
    }
    for (size_t id = 0; ok && id < tenants.size(); ++id) {
      ok = target->Step(static_cast<int>(id), static_cast<int64_t>(id)).ok;
    }
    snapshots[pass] = SnapshotStatus(*target, tenants.size(), &log);
    if (pass == 0 && ok) {
      for (int rep = 0; rep < plan.probe_reps; ++rep) {
        ok = target->Save(path, rep).ok && ok;
      }
      for (int rep = 0; ok && rep < plan.probe_reps; ++rep) {
        Clock::time_point t = Clock::now();
        auto loaded = persist::CheckpointStore(path).Load();
        times.load_us.push_back(ElapsedUs(t));
        ok = loaded.ok();
        if (!ok) break;
        t = Clock::now();
        rl::DdpgOptions options;
        ok = loaded->file
                 .Decode("agent/options",
                         [&](persist::Decoder& dec) {
                           return rl::LoadDdpgOptionsBinary(dec, &options);
                         })
                 .ok();
        rl::DdpgAgent agent(options);
        {
          ScopedSpan span("DdpgAgent::RestoreFromChunks", rep);
          ok = ok && agent.RestoreFromChunks(loaded->file).ok();
        }
        times.agent_restore_us.push_back(ElapsedUs(t));
        ServedStack fresh(args.workload, Level::kServer, nullptr);
        t = Clock::now();
        ok = fresh.Connect()->Restore(path, rep).ok && ok;
        times.restore_us.push_back(ElapsedUs(t));
      }
    }
    for (size_t id = 0; id < tenants.size(); ++id) {
      ok = target->Close(static_cast<int>(id), static_cast<int64_t>(id)).ok &&
           ok;
    }
    result->Check(ok, "level 3 probe failed");
  }
  SpanRecorder::Get().Enable(true);
  util::ComputeContext::Get().SetThreads(kThreads);
  result->Check(snapshots[0] == snapshots[1],
                "StepRound at 4 threads differs from 1 thread");
  return times;
}

// --- Level 4: TuningSession over timing decorators of its seams -----------

/// Each decorator serves one session and keeps what it saw, in call order,
/// for the level 5 probes.
class TimedDb : public env::DbInterface {
 public:
  TimedDb(std::unique_ptr<env::DbInterface> db, int64_t tenant)
      : db_(std::move(db)), tenant_(tenant) {}

  const knobs::KnobRegistry& registry() const override {
    return db_->registry();
  }
  const env::HardwareSpec& hardware() const override {
    return db_->hardware();
  }
  util::Status ApplyConfig(const knobs::Config& config) override {
    deployed_.push_back(config);
    ScopedSpan span("DbInterface::ApplyConfig", tenant_);
    return db_->ApplyConfig(config);
  }
  const knobs::Config& current_config() const override {
    return db_->current_config();
  }
  util::StatusOr<env::StressResult> RunStress(
      const workload::WorkloadSpec& spec, double duration_s) override {
    ScopedSpan span("DbInterface::RunStress", tenant_);
    return db_->RunStress(spec, duration_s);
  }
  void Reset() override { db_->Reset(); }

  std::vector<knobs::Config>& deployed() { return deployed_; }

 private:
  std::unique_ptr<env::DbInterface> db_;
  int64_t tenant_;
  std::vector<knobs::Config> deployed_;
};

/// The shared agent behind a bench mutex that mirrors the server's
/// agent_mu_.
struct SharedAgent {
  rl::DdpgAgent* agent = nullptr;
  std::vector<double> best_action;
  std::mutex mu;
};

/// Proposes through the shared agent with the session's own exploration
/// stream, as the server's policy does.
class TimedPolicy : public tuner::PolicySource {
 public:
  TimedPolicy(SharedAgent* shared, rl::ActionNoise* noise, int64_t tenant)
      : shared_(shared), noise_(noise), tenant_(tenant) {}

  std::vector<double> ProposeAction(const std::vector<double>& state,
                                    bool explore) override {
    ScopedSpan span("PolicySource::ProposeAction", tenant_);
    states_.push_back(state);
    std::unique_lock<std::mutex> lock(shared_->mu, std::defer_lock);
    {
      ScopedSpan wait("agent_mu.wait", tenant_);
      lock.lock();
    }
    ScopedSpan select("DdpgAgent::SelectAction", tenant_);
    return shared_->agent->SelectAction(state, explore ? noise_ : nullptr);
  }
  std::vector<double> BestKnownAction() const override {
    std::lock_guard<std::mutex> lock(shared_->mu);
    return shared_->best_action;
  }

  std::vector<std::vector<double>>& states() { return states_; }

 private:
  SharedAgent* shared_;
  rl::ActionNoise* noise_;
  int64_t tenant_;
  std::vector<std::vector<double>> states_;
};

/// Records into one shard of a pool, like the server's per-session sink.
class TimedSink : public tuner::ExperienceSink {
 public:
  TimedSink(tuner::ShardedExperiencePool* pool, size_t shard, int64_t tenant)
      : pool_(pool), shard_(shard), tenant_(tenant) {}

  void Record(tuner::Experience experience) override {
    transitions_.push_back(experience.transition);
    ScopedSpan span("ExperienceSink::Record", tenant_);
    pool_->Add(shard_, std::move(experience));
  }

  std::vector<rl::Transition>& transitions() { return transitions_; }

 private:
  tuner::ShardedExperiencePool* pool_;
  size_t shard_;
  int64_t tenant_;
  std::vector<rl::Transition> transitions_;
};

struct SessionLevel {
  uint64_t steps = 0;
  uint64_t crashed = 0;
  uint64_t improved = 0;
  uint64_t violations = 0;
  uint64_t rollbacks = 0;
  /// Per tenant, in tenant order: the CLOSE fields rendered like the
  /// server's, and what the decorators saw.
  std::vector<std::string> close_payloads;
  std::vector<std::vector<knobs::Config>> configs;
  std::vector<std::vector<std::vector<double>>> states;
  std::vector<std::vector<rl::Transition>> transitions;
};

std::unique_ptr<env::DbInterface> MakeDb(const server::SessionSpec& spec) {
  if (spec.engine == "mini") {
    engine::MiniCdbOptions options;
    options.table_rows = spec.mini_table_rows;
    options.seed = spec.seed;
    return std::make_unique<engine::MiniCdb>(spec.hardware, options);
  }
  return env::SimulatedCdb::MysqlCdb(spec.hardware, spec.seed);
}

SessionLevel RunSessions(const RunArgs& args, const Plan& plan,
                         tuner::CdbTuner& model, RunResult* result) {
  const std::vector<Tenant> tenants = ProbeTenants(
      args, static_cast<size_t>(std::max<int64_t>(plan.trace_work, 1)), 5);
  rl::DdpgAgent agent(model.agent().options());
  agent.CloneWeightsFrom(model.agent());
  SharedAgent shared;
  shared.agent = &agent;
  shared.best_action = model.best_offline_action();
  const server::TuningServerOptions server_options =
      ServerOptionsFor(args.workload);
  tuner::ShardedExperiencePool pool(kThreads, server_options.shard_capacity);
  std::mutex mu;  // Guards `out` and `result`.
  SessionLevel out;
  out.close_payloads.resize(tenants.size());
  out.configs.resize(tenants.size());
  out.states.resize(tenants.size());
  out.transitions.resize(tenants.size());

  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = next.fetch_add(1); i < tenants.size();
           i = next.fetch_add(1)) {
        const Tenant& tenant = tenants[i];
        std::unique_ptr<env::DbInterface> raw;
        {
          ScopedSpan span("env::Provision", tenant.index);
          raw = MakeDb(tenant.spec);
        }
        TimedDb db(std::move(raw), tenant.index);
        knobs::KnobSpace space = knobs::KnobSpace::AllTunable(&db.registry());
        tuner::MetricsCollector collector = model.collector();
        const rl::DdpgOptions& o = agent.options();
        rl::OrnsteinUhlenbeckNoise noise(
            o.action_dim, o.noise_theta, o.noise_sigma,
            util::Rng(tenant.spec.seed ^ kNoiseSeedSalt));
        TimedPolicy policy(&shared, &noise, tenant.index);
        TimedSink sink(&pool, static_cast<size_t>(t), tenant.index);
        tuner::TuningSessionOptions options;
        options.max_steps = tenant.spec.max_steps;
        options.stress_duration_s = tenant.spec.stress_duration_s >= 0.0
                                        ? tenant.spec.stress_duration_s
                                        : server_options.stress_duration_s;
        options.safety = server_options.safety;
        options.safety.enabled = tenant.spec.safety == 1;
        tuner::TuningSession session(&db, std::move(space),
                                     tenant.spec.workload, &collector, &policy,
                                     &sink, options);
        bool ok;
        {
          ScopedSpan span("TuningSession::Begin", tenant.index);
          ok = session.Begin().ok();
        }
        uint64_t steps = 0, crashed = 0, improved = 0, rollbacks = 0;
        while (ok && session.phase() == tuner::SessionPhase::kTuning) {
          const tuner::PerfPoint best_before = session.result().best;
          util::StatusOr<tuner::StepRecord> record = [&] {
            ScopedSpan span("TuningSession::Step", tenant.index);
            return session.Step();
          }();
          ok = record.ok();
          if (!ok) break;
          const tuner::PerfPoint& best = session.result().best;
          ++steps;
          crashed += record->crashed ? 1 : 0;
          rollbacks += record->rolled_back ? 1 : 0;
          improved += best.throughput != best_before.throughput ||
                              best.latency != best_before.latency
                          ? 1
                          : 0;
        }
        const tuner::OnlineTuneResult& r = session.result();
        using server::FormatDouble;
        std::lock_guard<std::mutex> lock(mu);
        out.close_payloads[i] = server::FormatOk(
            {{"steps", std::to_string(r.steps)},
             {"tps0", FormatDouble(r.initial.throughput)},
             {"best_tps", FormatDouble(r.best.throughput)},
             {"best_p99", FormatDouble(r.best.latency)}});
        out.configs[i] = std::move(db.deployed());
        out.states[i] = std::move(policy.states());
        out.transitions[i] = std::move(sink.transitions());
        out.steps += steps;
        out.crashed += crashed;
        out.improved += improved;
        out.rollbacks += rollbacks;
        if (session.guardrail() != nullptr) {
          out.violations +=
              static_cast<uint64_t>(session.guardrail()->violations());
        }
        if (!ok) result->Check(false, "level 4 session failed");
      }
    });
  }
  for (std::thread& th : threads) th.join();
  return out;
}

/// The first `limit` items of per-tenant lists, in tenant order.
template <typename T>
std::vector<T> FirstOf(const std::vector<std::vector<T>>& per_tenant,
                       size_t limit) {
  std::vector<T> out;
  for (const std::vector<T>& items : per_tenant) {
    for (const T& item : items) {
      if (out.size() == limit) return out;
      out.push_back(item);
    }
  }
  return out;
}

// --- Level 5: agent, GEMM and storage engine ------------------------------

struct GemmShape {
  size_t n, k, m;
};
// bench/bench_gemm_kernels.cc's shapes: the actor and critic layers at the
// training batch of 32, and the single-row recommendation forward.
constexpr GemmShape kGemmShapes[] = {{32, 63, 128},  {32, 128, 128},
                                     {32, 128, 266}, {32, 266, 128},
                                     {32, 256, 256}, {32, 256, 64},
                                     {1, 63, 128}};

/// Median seconds per call of `fn` over 2 * reps - 1 batches of ~2 ms.
template <typename Fn>
double SecondsPerCall(int reps, Fn&& fn) {
  int iters = 1;
  while (true) {
    const Clock::time_point t = Clock::now();
    for (int i = 0; i < iters; ++i) fn();
    if (ElapsedUs(t) > 2000.0 || iters >= (1 << 20)) break;
    iters *= 2;
  }
  std::vector<double> per_call;
  for (int batch = 0; batch < 2 * reps - 1; ++batch) {
    const Clock::time_point t = Clock::now();
    for (int i = 0; i < iters; ++i) fn();
    per_call.push_back(ElapsedUs(t) / 1e6 / iters);
  }
  return Median(per_call);
}

void MeasureGemm(int reps, MetricSet* m) {
  util::Rng rng(7);
  for (const GemmShape& s : kGemmShapes) {
    const std::string shape = std::to_string(s.n) + "x" + std::to_string(s.k) +
                              "x" + std::to_string(s.m);
    nn::Matrix a = nn::Matrix::RandomGaussian(s.n, s.k, 0.0, 1.0, rng);
    nn::Matrix b = nn::Matrix::RandomGaussian(s.k, s.m, 0.0, 1.0, rng);
    nn::Matrix g = nn::Matrix::RandomGaussian(s.n, s.m, 0.0, 1.0, rng);
    nn::Matrix w = nn::Matrix::RandomGaussian(s.k, s.m, 0.0, 1.0, rng);
    double sink = 0.0;
    const double flops = 2.0 * s.n * s.k * s.m;
    // Every op reads two operands and writes one result of these sizes.
    const double bytes = 8.0 * (s.n * s.k + s.k * s.m + s.n * s.m);
    const std::pair<const char*, double> ops[] = {
        {"mm", SecondsPerCall(reps, [&] { sink += a.MatMul(b).at(0, 0); })},
        {"ta",
         SecondsPerCall(reps, [&] { sink += a.MatMulTransposedA(g).at(0, 0); })},
        {"tb",
         SecondsPerCall(reps, [&] { sink += g.MatMulTransposedB(w).at(0, 0); })}};
    for (const auto& [op, seconds] : ops) {
      const std::string base = std::string("nn.gemm.") + op + "." + shape;
      m->Set(base + ".gflops", flops / seconds / 1e9, "GFLOP/s");
      m->Set(base + ".gbps", bytes / seconds / 1e9, "GB/s");
    }
    if (std::isnan(sink)) std::printf("# gemm produced NaN\n");
  }
}

void MeasureAgent(tuner::CdbTuner& model, const SessionLevel& sessions,
                  MetricSet* m) {
  rl::DdpgAgent agent(model.agent().options());
  agent.CloneWeightsFrom(model.agent());
  std::vector<double> select_us;
  const std::vector<std::vector<double>> states = FirstOf(sessions.states, 256);
  for (int rep = 0; rep < 4; ++rep) {
    for (const std::vector<double>& state : states) {
      ScopedSpan span("DdpgAgent::SelectAction", -1);
      const Clock::time_point t = Clock::now();
      agent.SelectAction(state, static_cast<rl::ActionNoise*>(nullptr));
      select_us.push_back(ElapsedUs(t));
    }
  }
  std::vector<double> observe_us;
  const std::vector<rl::Transition> transitions =
      FirstOf(sessions.transitions, 4096);
  // TrainStep needs a full batch; reuse the session transitions as needed.
  const size_t want =
      std::max<size_t>(transitions.size(), 2 * agent.options().batch_size);
  for (size_t i = 0; !transitions.empty() && i < want; ++i) {
    rl::Transition t = transitions[i % transitions.size()];
    const Clock::time_point start = Clock::now();
    agent.Observe(std::move(t));
    observe_us.push_back(ElapsedUs(start));
  }
  std::vector<double> train_us;
  for (int i = 0; i < 40; ++i) {
    ScopedSpan span("DdpgAgent::TrainStep", i);
    const Clock::time_point t = Clock::now();
    agent.TrainStep();
    train_us.push_back(ElapsedUs(t));
  }
  m->Set("rl.select_us", Median(select_us), "us");
  m->Set("rl.observe_us", Median(observe_us), "us");
  m->Set("rl.train_step_ms", Median(train_us) / 1e3, "ms");
}

void MeasureEngine(const RunArgs& args, const Plan& plan,
                   const SessionLevel& sessions, RunResult* result) {
  // A mini tenant of this seed replays the configs level 4 deployed.
  const server::SessionSpec spec =
      MakeTenant(Workload::kEpisodesMini, args.seed, 0).spec;
  std::vector<double> open_us, apply_us, stress_us;
  double reads = 0, read_requests = 0, pages_read = 0, pages_written = 0;
  double flushed = 0, fsyncs = 0, ops = 0, stresses = 0;
  for (int rep = 0; rep < plan.probe_reps; ++rep) {
    std::unique_ptr<engine::MiniCdb> db;
    {
      const Clock::time_point t = Clock::now();
      engine::MiniCdbOptions options;
      options.table_rows = spec.mini_table_rows;
      options.seed = spec.seed;
      db = std::make_unique<engine::MiniCdb>(spec.hardware, options);
      open_us.push_back(ElapsedUs(t));
    }
    for (const knobs::Config& config : FirstOf(sessions.configs, 16)) {
      Clock::time_point t = Clock::now();
      // A crashing config restarts the engine on its previous one.
      (void)db->ApplyConfig(config);
      apply_us.push_back(ElapsedUs(t));
      t = Clock::now();
      auto stress = db->RunStress(spec.workload, spec.stress_duration_s);
      stress_us.push_back(ElapsedUs(t));
      if (!stress.ok()) {
        result->Check(false, "engine stress failed");
        continue;
      }
      namespace mi = env::metric_index;
      auto delta = [&](size_t index) {
        return std::max(0.0, stress->after[index] - stress->before[index]);
      };
      reads += delta(mi::kBpReads);
      read_requests += delta(mi::kBpReadRequests);
      pages_read += delta(mi::kPagesRead);
      pages_written += delta(mi::kPagesWritten);
      flushed += delta(mi::kBpPagesFlushed);
      fsyncs += delta(mi::kOsLogFsyncs);
      ops += delta(mi::kQueries);
      stresses += 1;
    }
  }
  MetricSet& m = result->metrics;
  m.Set("engine.open_ms", Median(open_us) / 1e3, "ms");
  m.Set("engine.apply_ms", Median(apply_us) / 1e3, "ms");
  m.Set("engine.stress_ms", Median(stress_us) / 1e3, "ms");
  m.Set("engine.bp_hit_rate",
        read_requests > 0 ? 1.0 - reads / read_requests : 0.0, "ratio");
  m.Set("engine.pages_read_per_kop", ops > 0 ? 1e3 * pages_read / ops : 0.0,
        "count");
  m.Set("engine.pages_written_per_kop",
        ops > 0 ? 1e3 * pages_written / ops : 0.0, "count");
  m.Set("engine.pages_flushed_per_stress",
        stresses > 0 ? flushed / stresses : 0.0, "count");
  m.Set("engine.log_fsyncs_per_stress", stresses > 0 ? fsyncs / stresses : 0.0,
        "count");
}

double MedianOf(const std::vector<Span>& spans, const std::string& name) {
  return Median(Durations(spans, name));
}

}  // namespace

RunResult RunTraced(const RunArgs& args) {
  const Plan plan = MakePlan(args.workload, args.scale);
  RunResult result;
  MetricSet& m = result.metrics;
  StandardModel model = TrainStandardModel(plan.offline_steps);
  tuner::CdbTuner* tuner = model.tuner.get();
  SpanRecorder& recorder = SpanRecorder::Get();
  const std::string path = args.tmp_dir + "/ckpt";

  // Levels 1-3 replay the same stream. Level 1 runs untraced and traced
  // twice each, in the order A B B A, so a steady drift in machine speed
  // cancels out of the tracing overhead.
  const LevelRun untraced_a =
      ReplayStream(args, plan, Level::kWire, tuner, path + "0", &result);
  recorder.Enable(true);
  const LevelRun wire =
      ReplayStream(args, plan, Level::kWire, tuner, path + "1", &result);
  const LevelRun wire_b =
      ReplayStream(args, plan, Level::kWire, tuner, path + "1", &result);
  recorder.Enable(false);
  const LevelRun untraced_b =
      ReplayStream(args, plan, Level::kWire, tuner, path + "0", &result);
  recorder.Enable(true);
  const LevelRun dispatch =
      ReplayStream(args, plan, Level::kDispatch, tuner, path + "2", &result);
  const size_t before_server = recorder.Snapshot().size();
  const LevelRun direct =
      ReplayStream(args, plan, Level::kServer, tuner, path + "3", &result);
  bool same = true;
  for (const LevelRun* run :
       {&untraced_a, &wire, &wire_b, &untraced_b, &dispatch, &direct}) {
    result.Count(run->log);
    same = same && run->digest == direct.digest;
  }
  result.Check(same, "levels 1-3 disagree on the stream's responses");

  const double n = static_cast<double>(std::max<uint64_t>(wire.log.attempted, 1));
  const double wire_us = (wire.log.total_us + wire_b.log.total_us) / 2;
  const double untraced_us =
      (untraced_a.log.total_us + untraced_b.log.total_us) / 2;
  m.Set("wire.call_us", wire_us / n, "us");
  m.Set("wire.self_us", (wire_us - dispatch.log.total_us) / n, "us");
  m.Set("dispatch.self_us", (dispatch.log.total_us - direct.log.total_us) / n,
        "us");
  m.Set("server.call_us", direct.log.total_us / n, "us");
  m.Set("trace.overhead_pct",
        100.0 * (wire_us - untraced_us) / std::max(untraced_us, 1.0), "%");
  m.Set("net.ping_p50_us", wire.ping.p50, "us");
  m.Set("net.ping_tail_us", wire.ping.tail, "us");
  m.Set("net.frames_in", static_cast<double>(wire.transport.frames_in), "count");
  m.Set("net.frames_out", static_cast<double>(wire.transport.frames_out),
        "count");
  m.Set("net.shed", static_cast<double>(wire.transport.shed_busy), "count");
  m.Set("net.read_pauses", static_cast<double>(wire.transport.read_pauses),
        "count");
  m.Set("net.sendq_drops", static_cast<double>(wire.transport.sendq_drops),
        "count");

  // Level 3 probe, then levels 4 and 5.
  const ProbeTimes probe =
      RoundAndPersistProbe(args, plan, tuner, path + "p", &result);
  const size_t before_sessions = recorder.Snapshot().size();
  const SessionLevel sessions = RunSessions(args, plan, *tuner, &result);
  if (IsEpisodes(args.workload)) {
    for (size_t i = 0; i < sessions.close_payloads.size(); ++i) {
      const auto& payloads = direct.tenant_payloads[i];
      result.Check(!payloads.empty() &&
                       payloads.back() == sessions.close_payloads[i],
                   "level 4 session " + std::to_string(i) +
                       " differs from the server's");
    }
  }
  MeasureAgent(*tuner, sessions, &m);
  MeasureGemm(plan.probe_reps, &m);
  MeasureEngine(args, plan, sessions, &result);

  const std::vector<Span> spans = recorder.Snapshot();
  const std::vector<Span> server_spans(spans.begin() + before_server,
                                       spans.begin() + before_sessions);
  const std::vector<Span> session_spans(spans.begin() + before_sessions,
                                        spans.end());
  const double server_step = MedianOf(server_spans, "TuningServer::Step");
  const double tuner_step = MedianOf(session_spans, "TuningSession::Step");
  m.Set("server.open_us", MedianOf(server_spans, "TuningServer::Open"), "us");
  m.Set("server.step_us", server_step, "us");
  m.Set("server.close_us", MedianOf(server_spans, "TuningServer::Close"), "us");
  m.Set("server.status_us", MedianOf(server_spans, "TuningServer::GetStatus"),
        "us");
  m.Set("server.round_ms",
        MedianOf(server_spans, "TuningServer::StepRound") / 1e3, "ms");
  m.Set("server.train_ms", MedianOf(server_spans, "TuningServer::Train") / 1e3,
        "ms");
  m.Set("server.save_ms",
        MedianOf(server_spans, "TuningServer::SaveCheckpoint") / 1e3, "ms");
  const double restore_us = Median(probe.restore_us);
  m.Set("server.restore_ms", restore_us / 1e3, "ms");
  m.Set("server.registry_self_us", server_step - tuner_step, "us");
  m.Set("util.round_speedup",
        Median(probe.round_us[1]) / std::max(Median(probe.round_us[0]), 1e-9),
        "ratio");

  m.Set("tuner.step_us", tuner_step, "us");
  m.Set("tuner.self_us", MeanSelfUs(session_spans, "TuningSession::Step"),
        "us");
  m.Set("tuner.propose_us",
        MedianOf(session_spans, "DdpgAgent::SelectAction"), "us");
  const std::vector<double> waits = Durations(session_spans, "agent_mu.wait");
  m.Set("tuner.lock_wait_us", Summarize(waits).mean, "us");
  m.Set("tuner.sink_us",
        Summarize(Durations(session_spans, "ExperienceSink::Record")).mean,
        "us");
  const double steps = static_cast<double>(std::max<uint64_t>(sessions.steps, 1));
  m.Set("tuner.crash_frac", sessions.crashed / steps, "ratio");
  m.Set("tuner.improve_frac", sessions.improved / steps, "ratio");
  m.Set("safety.violations_per_kstep", 1e3 * sessions.violations / steps,
        "count");
  m.Set("safety.rollbacks_per_kstep", 1e3 * sessions.rollbacks / steps,
        "count");
  m.Set("env.open_us", MedianOf(session_spans, "env::Provision"), "us");
  m.Set("env.apply_us", MedianOf(session_spans, "DbInterface::ApplyConfig"),
        "us");
  m.Set("env.stress_us", MedianOf(session_spans, "DbInterface::RunStress"),
        "us");

  const double load_us = Median(probe.load_us);
  const double agent_us = Median(probe.agent_restore_us);
  m.Set("persist.load_ms", load_us / 1e3, "ms");
  m.Set("persist.agent_restore_ms", agent_us / 1e3, "ms");
  m.Set("persist.replay_ms", (restore_us - load_us - agent_us) / 1e3, "ms");

  std::printf("# %s traced: %zu spans; stream digest %016llx\n",
              WorkloadName(args.workload), spans.size(),
              static_cast<unsigned long long>(wire.digest));
  if (!args.trace_file.empty()) {
    result.Check(recorder.WriteChromeTrace(args.trace_file),
                 "cannot write " + args.trace_file);
  }
  return result;
}

}  // namespace cdbtune::e2e
