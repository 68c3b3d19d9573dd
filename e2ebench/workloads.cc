#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "env/instance.h"
#include "server/protocol.h"
#include "spans.h"
#include "util/random.h"

namespace cdbtune::e2e {

namespace {

constexpr const char* kWorkloadNames[] = {"sysbench_rw", "sysbench_ro",
                                          "sysbench_wo", "tpcc",
                                          "tpch",        "ycsb"};

struct Shape {
  int ram_gb;
  int disk_gb;
};
// CDB-A..E (paper Table 1).
constexpr Shape kShapes[] = {{8, 100}, {12, 100}, {12, 200}, {16, 200},
                             {32, 300}};
constexpr int kMiniRamGb[] = {8, 12, 16, 32};

// Redo can reach 16 GiB x 16 groups; a 300 GB disk always holds it, so no
// tenant config can hit the engine's disk-full recovery abort.
constexpr int kMiniDiskGb = 300;
constexpr int kMiniRows = 20000;
constexpr int kMiniStressS = 60;
// Restore replays every engine call a session made, so its cost grows with
// table size and session age; recover's mini sessions are small enough for
// a 10 s run to time ~50 restores.
constexpr int kRecoverMiniRows = 2500;
// A budget no run exhausts: resident sessions keep tuning every round.
constexpr int kResidentSteps = 1 << 24;

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Where a tenant's request comes from: its workload, hardware and
/// guardrail choices are stratified (tenant i takes the i-th entry of
/// seed-rotated cycles, so every 2 x 6 x `shapes` consecutive tenants cover
/// each workload x shape x guardrail combination once) and its instance
/// seed is drawn from the seed. Balanced draws keep the mix, and so the
/// work per tenant, the same from seed to seed.
struct Draw {
  int workload;
  int shape;
  int safety;
  uint64_t tenant_seed;
};

Draw DrawFor(uint64_t seed, uint64_t salt, int64_t index, int shapes) {
  util::Rng offsets(SplitMix(seed ^ salt));
  const int64_t w0 = offsets.UniformInt(0, 5);
  const int64_t s0 = offsets.UniformInt(0, shapes - 1);
  const int64_t g0 = offsets.UniformInt(0, 1);
  util::Rng rng(SplitMix(SplitMix(seed ^ salt) + static_cast<uint64_t>(index)));
  Draw d;
  d.workload = static_cast<int>((index + w0) % 6);
  d.shape = static_cast<int>((index / 6 + s0) % shapes);
  d.safety = static_cast<int>((index / (6 * shapes) + g0) % 2);
  d.tenant_seed = static_cast<uint64_t>(rng.UniformInt(1, 1 << 30));
  return d;
}

Tenant Build(const Draw& d, int64_t index, bool mini, int steps,
             int mini_rows = kMiniRows) {
  const std::string workload = kWorkloadNames[d.workload];
  const int ram_gb = mini ? kMiniRamGb[d.shape] : kShapes[d.shape].ram_gb;
  const int disk_gb = mini ? kMiniDiskGb : kShapes[d.shape].disk_gb;

  Tenant t;
  t.index = index;
  t.open_line = "OPEN engine=" + std::string(mini ? "mini" : "sim") +
                " workload=" + workload + " seed=" +
                std::to_string(d.tenant_seed) + " steps=" +
                std::to_string(steps);
  if (mini) {
    t.open_line += " rows=" + std::to_string(mini_rows) +
                   " stress_s=" + std::to_string(kMiniStressS);
  }
  t.open_line += " ram_gb=" + std::to_string(ram_gb) +
                 " disk_gb=" + std::to_string(disk_gb) +
                 " safety=" + std::to_string(d.safety);

  t.spec.engine = mini ? "mini" : "sim";
  t.spec.workload = server::WorkloadByName(workload).value();
  t.spec.hardware = env::MakeInstance("custom", ram_gb, disk_gb);
  t.spec.seed = d.tenant_seed;
  t.spec.max_steps = steps;
  t.spec.safety = d.safety;
  if (mini) {
    t.spec.mini_table_rows = static_cast<uint64_t>(mini_rows);
    t.spec.stress_duration_s = kMiniStressS;
  }
  return t;
}

std::string StripId(const std::string& payload, int* id) {
  const size_t at = payload.find(" id=");
  if (at == std::string::npos) return payload;
  size_t end = payload.find(' ', at + 1);
  if (end == std::string::npos) end = payload.size();
  if (id != nullptr) *id = std::atoi(payload.c_str() + at + 4);
  return payload.substr(0, at) + payload.substr(end);
}

Reply ToReply(const util::StatusOr<std::string>& response) {
  Reply reply;
  if (!response.ok()) {
    reply.payload = response.status().ToString();
    return reply;
  }
  reply.ok = response->rfind("OK", 0) == 0;
  reply.payload = StripId(*response, &reply.id);
  return reply;
}

/// Level 1 and 2: the request line through a transport or the dispatcher.
class LineTarget : public Target {
 public:
  Reply Open(const Tenant& tenant) override {
    return Send(tenant.open_line, tenant.index);
  }
  Reply Step(int id, int64_t tenant) override {
    return Send("STEP id=" + std::to_string(id), tenant);
  }
  Reply Close(int id, int64_t tenant) override {
    return Send("CLOSE id=" + std::to_string(id), tenant);
  }
  Reply Round(int64_t pair) override { return Send("ROUND", pair); }
  Reply Train(int64_t pair) override { return Send("TRAIN n=1", pair); }
  Reply Status(int id) override {
    return Send("STATUS id=" + std::to_string(id), id);
  }
  Reply Save(const std::string& path, int64_t cycle) override {
    return Send("SAVE path=" + path, cycle);
  }
  Reply Restore(const std::string& path, int64_t cycle) override {
    return Send("RESTORE path=" + path, cycle);
  }
  Reply Ping() override { return Send("PING", -1); }

 protected:
  virtual Reply Send(const std::string& line, int64_t tenant) = 0;
};

class WireTarget : public LineTarget {
 public:
  explicit WireTarget(uint16_t port) {
    connected_ = client_.Connect("127.0.0.1", port).ok();
  }

 protected:
  Reply Send(const std::string& line, int64_t tenant) override {
    if (!connected_) return Reply{false, "not connected", -1};
    ScopedSpan span("FrameClient::Call", tenant);
    return ToReply(client_.Call(line));
  }

 private:
  server::net::FrameClient client_;
  bool connected_ = false;
};

class DispatchTarget : public LineTarget {
 public:
  explicit DispatchTarget(const server::Dispatcher* dispatcher)
      : dispatcher_(dispatcher) {}

 protected:
  Reply Send(const std::string& line, int64_t tenant) override {
    ScopedSpan span("Dispatcher::Dispatch", tenant);
    return ToReply(dispatcher_->Dispatch(line).response);
  }

 private:
  const server::Dispatcher* dispatcher_;
};

std::string FormatStatus(const server::SessionStatus& s) {
  using server::FormatDouble;
  std::vector<std::pair<std::string, std::string>> kv = {
      {"phase", tuner::SessionPhaseName(s.phase)},
      {"engine", s.engine},
      {"workload", s.workload},
      {"steps", std::to_string(s.steps_done)},
      {"tps0", FormatDouble(s.initial_throughput)},
      {"p99_0", FormatDouble(s.initial_latency)},
      {"best_tps", FormatDouble(s.best_throughput)},
      {"best_p99", FormatDouble(s.best_latency)},
      {"last_reward", FormatDouble(s.last_reward)},
      {"busy", s.busy ? "1" : "0"},
      {"safety", s.safety_enabled ? "1" : "0"}};
  if (s.safety_enabled) {
    kv.insert(kv.end(),
              {{"base_tps", FormatDouble(s.baseline_throughput)},
               {"base_p99", FormatDouble(s.baseline_latency)},
               {"tr_width", FormatDouble(s.trust_width)},
               {"viol", std::to_string(s.violations)},
               {"rollbacks", std::to_string(s.rollbacks)},
               {"rewarms", std::to_string(s.rewarms)},
               {"on_lkg", s.on_last_known_good ? "1" : "0"}});
  }
  return server::FormatOk(kv);
}

/// Level 3: the TuningServer's public calls, rendered as the dispatcher
/// would render them (minus the id), so every level's payloads compare.
class ServerTarget : public Target {
 public:
  explicit ServerTarget(server::TuningServer* server) : server_(server) {}

  Reply Open(const Tenant& tenant) override {
    util::StatusOr<int> id = [&] {
      ScopedSpan span("TuningServer::Open", tenant.index);
      return server_->Open(tenant.spec);
    }();
    if (!id.ok()) return Error(id.status());
    auto status = GetStatus(*id, tenant.index);
    if (!status.ok()) return Error(status.status());
    return Ok({{"tps", server::FormatDouble(status->initial_throughput)},
               {"p99", server::FormatDouble(status->initial_latency)}},
              *id);
  }

  Reply Step(int id, int64_t tenant) override {
    util::StatusOr<tuner::StepRecord> record = [&] {
      ScopedSpan span("TuningServer::Step", tenant);
      return server_->Step(id);
    }();
    if (!record.ok()) return Error(record.status());
    auto status = GetStatus(id, tenant);
    if (!status.ok()) return Error(status.status());
    using server::FormatDouble;
    return Ok({{"step", std::to_string(record->step)},
               {"tps", FormatDouble(record->throughput)},
               {"p99", FormatDouble(record->latency)},
               {"reward", FormatDouble(record->reward)},
               {"crashed", record->crashed ? "1" : "0"},
               {"phase", tuner::SessionPhaseName(status->phase)}},
              id);
  }

  Reply Close(int id, int64_t tenant) override {
    ScopedSpan span("TuningServer::Close", tenant);
    auto result = server_->Close(id);
    if (!result.ok()) return Error(result.status());
    using server::FormatDouble;
    return Ok({{"steps", std::to_string(result->steps)},
               {"tps0", FormatDouble(result->initial.throughput)},
               {"best_tps", FormatDouble(result->best.throughput)},
               {"best_p99", FormatDouble(result->best.latency)}},
              id);
  }

  Reply Round(int64_t pair) override {
    ScopedSpan span("TuningServer::StepRound", pair);
    auto stepped = server_->StepRound();
    if (!stepped.ok()) return Error(stepped.status());
    return Ok({{"rounds", "1"}, {"sessions", std::to_string(*stepped)}}, -1);
  }

  Reply Train(int64_t pair) override {
    ScopedSpan span("TuningServer::Train", pair);
    util::Status trained = server_->Train(1);
    if (!trained.ok()) return Error(trained);
    return Ok({{"trained", "1"}}, -1);
  }

  Reply Status(int id) override {
    auto status = GetStatus(id, id);
    if (!status.ok()) return Error(status.status());
    return Reply{true, FormatStatus(*status), id};
  }

  Reply Save(const std::string& path, int64_t cycle) override {
    ScopedSpan span("TuningServer::SaveCheckpoint", cycle);
    util::Status saved = server_->SaveCheckpoint(path);
    if (!saved.ok()) return Error(saved);
    return Ok({{"path", path},
               {"rounds", std::to_string(server_->rounds_completed())}},
              -1);
  }

  Reply Restore(const std::string& path, int64_t cycle) override {
    ScopedSpan span("TuningServer::RestoreCheckpoint", cycle);
    auto report = server_->RestoreCheckpoint(path);
    if (!report.ok()) return Error(report.status());
    return Ok({{"path", report->path},
               {"generation", std::to_string(report->generation)},
               {"dropped", std::to_string(report->dropped.size())},
               {"sessions", std::to_string(report->sessions)},
               {"rounds", std::to_string(report->rounds_completed)}},
              -1);
  }

  Reply Ping() override { return Reply{true, "OK pong=1", -1}; }

 private:
  util::StatusOr<server::SessionStatus> GetStatus(int id, int64_t tenant) {
    ScopedSpan span("TuningServer::GetStatus", tenant);
    return server_->GetStatus(id);
  }
  static Reply Ok(const std::vector<std::pair<std::string, std::string>>& kv,
                  int id) {
    return Reply{true, server::FormatOk(kv), id};
  }
  static Reply Error(const util::Status& status) {
    return Reply{false, server::FormatError(status), -1};
  }

  server::TuningServer* server_;
};

/// Issues one request, timing it into `sink` (if any) when `timed`.
template <typename Fn>
Reply Timed(Fn&& call, bool timed, Samples* sink, CallLog* log) {
  const Clock::time_point start = Clock::now();
  Reply reply = call();
  const double us = ElapsedUs(start);
  log->total_us += us;
  ++log->attempted;
  if (!reply.ok) {
    ++log->failed;
    if (log->errors.size() < 8) log->errors.push_back(reply.payload);
  }
  if (timed && sink != nullptr) sink->Add(us);
  return reply;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kEpisodesSim, Workload::kEpisodesMini,
                     Workload::kRoundsTrain, Workload::kRecover}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kEpisodesSim:
      return "episodes_sim";
    case Workload::kEpisodesMini:
      return "episodes_mini";
    case Workload::kRoundsTrain:
      return "rounds_train";
    case Workload::kRecover:
      return "recover";
  }
  return "?";
}

bool IsEpisodes(Workload w) {
  return w == Workload::kEpisodesSim || w == Workload::kEpisodesMini;
}

Plan MakePlan(Workload w, double scale) {
  Plan p;
  switch (w) {
    case Workload::kEpisodesSim:
      p.warmup = 200;
      p.per_second = 2500;
      p.trace_work = 1500;
      p.replay_sample = 16;
      break;
    case Workload::kEpisodesMini:
      p.warmup = 8;
      p.per_second = 50;
      p.trace_work = 40;
      p.replay_sample = 16;
      break;
    case Workload::kRoundsTrain:
      p.warmup = 20;
      p.per_second = 110;
      p.trace_work = 60;
      break;
    case Workload::kRecover:
      p.warmup = 2;
      p.per_second = 5;
      p.prep_pairs = 5;
      p.trace_work = 12;
      break;
  }
  if (scale < 1.0) {
    auto shrink = [scale](int64_t n) {
      return n == 0 ? 0
                    : std::max<int64_t>(1, static_cast<int64_t>(
                                               std::llround(n * scale)));
    };
    p.warmup = shrink(p.warmup);
    p.prep_pairs = shrink(p.prep_pairs);
    p.trace_work = shrink(p.trace_work);
    p.replay_sample = shrink(p.replay_sample);
    p.offline_steps = 40;
    p.setup_reps = 1;
    p.probe_reps = 1;
    p.pings = 100;
  }
  return p;
}

int64_t Plan::Work(double seconds) const {
  return std::max<int64_t>(1, std::llround(seconds * per_second));
}

Tenant MakeTenant(Workload w, uint64_t seed, int64_t index) {
  const bool mini = w == Workload::kEpisodesMini;
  const Draw d = DrawFor(seed, 0x5E55104EULL, index, mini ? 4 : 5);
  return Build(d, index, mini, 5);
}

std::vector<Tenant> ResidentTenants(Workload w, uint64_t seed) {
  std::vector<Tenant> out;
  if (w == Workload::kRoundsTrain) {
    for (int64_t i = 0; i < 64; ++i) {
      out.push_back(
          Build(DrawFor(seed, 0x20C0D5ULL, i, 5), i, false, kResidentSteps));
    }
  } else if (w == Workload::kRecover) {
    for (int64_t i = 0; i < 10; ++i) {
      out.push_back(
          Build(DrawFor(seed, 0x2EC0FEULL, i, 5), i, false, kResidentSteps));
    }
    // The two mini sessions dominate restore time, so their workloads and
    // shapes are fixed (a read-write and a write-heavy mix); only their
    // instance seeds and guardrails come from the seed.
    for (int64_t i = 10; i < 12; ++i) {
      Draw d = DrawFor(seed, 0x2EC0FEULL, i, 4);
      d.workload = i == 10 ? 0 : 3;  // sysbench_rw, tpcc.
      d.shape = i == 10 ? 0 : 2;     // 8 GB, 16 GB.
      out.push_back(Build(d, i, true, kResidentSteps, kRecoverMiniRows));
    }
  }
  return out;
}

StandardModel TrainStandardModel(int offline_steps) {
  StandardModel m;
  m.db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 71);
  auto space = knobs::KnobSpace::AllTunable(&m.db->registry());
  tuner::CdbTuneOptions options;
  options.max_offline_steps = offline_steps;
  options.steps_per_episode = 10;
  options.seed = 71;
  m.tuner = std::make_unique<tuner::CdbTuner>(m.db.get(), space, options);
  m.tuner->OfflineTrain(workload::SysbenchReadWrite());
  return m;
}

server::TuningServerOptions ServerOptionsFor(Workload w) {
  server::TuningServerOptions options;
  if (w == Workload::kRoundsTrain) options.max_sessions = 64;
  return options;
}

std::string Field(const std::string& payload, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = payload.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  size_t end = payload.find(' ', begin);
  if (end == std::string::npos) end = payload.size();
  return payload.substr(begin, end - begin);
}

ServedStack::ServedStack(Workload w, Level level, tuner::CdbTuner* model)
    : level_(level) {
  server_ = std::make_unique<server::TuningServer>(ServerOptionsFor(w));
  if (model != nullptr && !server_->AdoptModel(*model).ok()) return;
  dispatcher_ = std::make_unique<server::Dispatcher>(server_.get());
  if (level_ == Level::kWire) {
    server::net::TcpServerOptions tcp_options;
    tcp_options.worker_threads = 4;
    tcp_ = std::make_unique<server::net::TcpServer>(dispatcher_.get(),
                                                    tcp_options);
    dispatcher_->RegisterTransport(tcp_.get());
    if (!tcp_->Start().ok()) return;
  }
  ok_ = true;
}

ServedStack::~ServedStack() {
  if (tcp_) tcp_->Stop();
}

std::unique_ptr<Target> ServedStack::Connect() {
  switch (level_) {
    case Level::kWire:
      return std::make_unique<WireTarget>(tcp_->port());
    case Level::kDispatch:
      return std::make_unique<DispatchTarget>(dispatcher_.get());
    case Level::kServer:
      return std::make_unique<ServerTarget>(server_.get());
  }
  return nullptr;
}

void CallLog::Merge(const CallLog& other) {
  op.Append(other.op);
  req.Append(other.req);
  total_us += other.total_us;
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& e : other.errors) {
    if (errors.size() < 8) errors.push_back(e);
  }
}

EpisodeResult RunEpisode(Target& target, const Tenant& tenant, bool timed,
                         CallLog* log) {
  EpisodeResult result;
  const Clock::time_point start = Clock::now();
  Reply open = Timed([&] { return target.Open(tenant); }, timed,
                     nullptr, log);
  result.payloads.push_back(open.payload);
  if (!open.ok) return result;
  bool steps_ok = true;
  for (int s = 0; s < tenant.spec.max_steps; ++s) {
    Reply step = Timed([&] { return target.Step(open.id, tenant.index); },
                       timed, &log->req, log);
    result.payloads.push_back(step.payload);
    if (!step.ok) {
      steps_ok = false;
      break;
    }
    if (Field(step.payload, "phase") != "TUNING") break;
  }
  Reply close = Timed([&] { return target.Close(open.id, tenant.index); },
                      timed, nullptr, log);
  result.payloads.push_back(close.payload);
  if (timed) log->op.Add(ElapsedUs(start));
  if (!close.ok || !steps_ok) return result;
  const double tps0 = std::atof(Field(close.payload, "tps0").c_str());
  const double best = std::atof(Field(close.payload, "best_tps").c_str());
  result.gain = tps0 > 0.0 ? best / tps0 : 0.0;
  return result;
}

bool OpenResidents(Target& target, const std::vector<Tenant>& residents,
                   CallLog* log) {
  for (const Tenant& tenant : residents) {
    Reply open = Timed([&] { return target.Open(tenant); }, false,
                       nullptr, log);
    if (!open.ok || open.id != static_cast<int>(tenant.index)) return false;
  }
  return true;
}

bool RunPair(Target& target, int64_t pair, bool timed, CallLog* log) {
  const Clock::time_point start = Clock::now();
  Reply round =
      Timed([&] { return target.Round(pair); }, timed, &log->req, log);
  Reply train =
      Timed([&] { return target.Train(pair); }, timed, nullptr, log);
  if (timed) log->op.Add(ElapsedUs(start));
  return round.ok && train.ok;
}

bool RunCycle(Target& source, Target& target, const std::string& path,
              int64_t cycle, bool timed, CallLog* log) {
  const Clock::time_point start = Clock::now();
  Reply saved =
      Timed([&] { return source.Save(path, cycle); }, timed, nullptr, log);
  Reply restored = Timed([&] { return target.Restore(path, cycle); }, timed,
                         &log->req, log);
  if (timed) log->op.Add(ElapsedUs(start));
  return saved.ok && restored.ok;
}

std::vector<std::string> SnapshotStatus(Target& target, size_t sessions,
                                        CallLog* log) {
  std::vector<std::string> out;
  for (size_t id = 0; id < sessions; ++id) {
    Reply status = Timed([&] { return target.Status(static_cast<int>(id)); },
                         false, nullptr, log);
    out.push_back(status.payload);
  }
  return out;
}

double GainFromStatus(const std::vector<std::string>& status_payloads) {
  double log_sum = 0.0;
  size_t n = 0;
  for (const std::string& payload : status_payloads) {
    const double tps0 = std::atof(Field(payload, "tps0").c_str());
    const double best = std::atof(Field(payload, "best_tps").c_str());
    if (tps0 <= 0.0 || best <= 0.0) return 0.0;
    log_sum += std::log(best / tps0);
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

}  // namespace cdbtune::e2e
