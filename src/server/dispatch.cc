#include "server/dispatch.h"

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "env/instance.h"
#include "server/protocol.h"
#include "tuner/tuning_session.h"

namespace cdbtune::server {

namespace {

using KeyValues = std::vector<std::pair<std::string, std::string>>;

// Inclusive ranges of the types wire integers are narrowed to: `int` for
// ids, step budgets and iteration counts, and the non-negative int64 values
// for uint64_t / size_t fields.
constexpr int64_t kIntMin = std::numeric_limits<int>::min();
constexpr int64_t kIntMax = std::numeric_limits<int>::max();
constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

void AppendStatus(const SessionStatus& status, KeyValues* out) {
  out->emplace_back("id", std::to_string(status.id));
  out->emplace_back("phase", tuner::SessionPhaseName(status.phase));
  out->emplace_back("engine", status.engine);
  out->emplace_back("workload", status.workload);
  out->emplace_back("steps", std::to_string(status.steps_done));
  out->emplace_back("tps0", FormatDouble(status.initial_throughput));
  out->emplace_back("p99_0", FormatDouble(status.initial_latency));
  out->emplace_back("best_tps", FormatDouble(status.best_throughput));
  out->emplace_back("best_p99", FormatDouble(status.best_latency));
  out->emplace_back("last_reward", FormatDouble(status.last_reward));
  out->emplace_back("busy", status.busy ? "1" : "0");
  out->emplace_back("safety", status.safety_enabled ? "1" : "0");
  if (status.safety_enabled) {
    out->emplace_back("base_tps", FormatDouble(status.baseline_throughput));
    out->emplace_back("base_p99", FormatDouble(status.baseline_latency));
    out->emplace_back("tr_width", FormatDouble(status.trust_width));
    out->emplace_back("viol", std::to_string(status.violations));
    out->emplace_back("rollbacks", std::to_string(status.rollbacks));
    out->emplace_back("rewarms", std::to_string(status.rewarms));
    out->emplace_back("on_lkg", status.on_last_known_good ? "1" : "0");
  }
}

std::string HandleOpen(TuningServer& server, const Command& command) {
  SessionSpec spec;
  spec.engine = GetStringOr(command, "engine", "sim");

  auto workload = WorkloadByName(GetStringOr(command, "workload", "sysbench_rw"));
  if (!workload.ok()) return FormatError(workload.status());
  spec.workload = *workload;

  auto seed = GetIntOr(command, "seed", 1, 0, kInt64Max);
  if (!seed.ok()) return FormatError(seed.status());
  spec.seed = static_cast<uint64_t>(*seed);

  auto steps = GetIntOr(command, "steps", spec.max_steps, kIntMin, kIntMax);
  if (!steps.ok()) return FormatError(steps.status());
  spec.max_steps = static_cast<int>(*steps);

  auto rows = GetIntOr(command, "rows",
                       static_cast<int64_t>(spec.mini_table_rows), 0,
                       kInt64Max);
  if (!rows.ok()) return FormatError(rows.status());
  spec.mini_table_rows = static_cast<uint64_t>(*rows);

  auto stress_s = GetDoubleOr(command, "stress_s", spec.stress_duration_s);
  if (!stress_s.ok()) return FormatError(stress_s.status());
  spec.stress_duration_s = *stress_s;

  // -1 inherits the server default, 0 forces the guardrail off, 1 on.
  auto safety = GetIntOr(command, "safety", spec.safety, -1, 1);
  if (!safety.ok()) return FormatError(safety.status());
  spec.safety = static_cast<int>(*safety);

  spec.degrade_knob = GetStringOr(command, "degrade", "");
  auto degrade_after = GetIntOr(command, "degrade_after", 0, 0, kInt64Max);
  if (!degrade_after.ok()) return FormatError(degrade_after.status());
  spec.degrade_after = static_cast<uint64_t>(*degrade_after);
  auto degrade_sev = GetDoubleOr(command, "degrade_sev", 0.0);
  if (!degrade_sev.ok()) return FormatError(degrade_sev.status());
  spec.degrade_severity = *degrade_sev;

  auto ram_gb = GetDoubleOr(command, "ram_gb", spec.hardware.ram_gb);
  if (!ram_gb.ok()) return FormatError(ram_gb.status());
  auto disk_gb = GetDoubleOr(command, "disk_gb", spec.hardware.disk_gb);
  if (!disk_gb.ok()) return FormatError(disk_gb.status());
  spec.hardware = env::MakeInstance("custom", *ram_gb, *disk_gb);

  auto id = server.Open(spec);
  if (!id.ok()) return FormatError(id.status());
  auto status = server.GetStatus(*id);
  if (!status.ok()) return FormatError(status.status());
  return FormatOk({{"id", std::to_string(*id)},
                   {"tps", FormatDouble(status->initial_throughput)},
                   {"p99", FormatDouble(status->initial_latency)}});
}

std::string HandleStep(TuningServer& server, const Command& command) {
  auto id = GetInt(command, "id", kIntMin, kIntMax);
  if (!id.ok()) return FormatError(id.status());
  auto n = GetIntOr(command, "n", 1, 1, kInt64Max);
  if (!n.ok()) return FormatError(n.status());
  tuner::StepRecord last;
  for (int64_t i = 0; i < *n; ++i) {
    auto record = server.Step(static_cast<int>(*id));
    if (!record.ok()) return FormatError(record.status());
    last = *record;
    if (last.crashed) break;
  }
  auto status = server.GetStatus(static_cast<int>(*id));
  if (!status.ok()) return FormatError(status.status());
  return FormatOk({{"id", std::to_string(*id)},
                   {"step", std::to_string(last.step)},
                   {"tps", FormatDouble(last.throughput)},
                   {"p99", FormatDouble(last.latency)},
                   {"reward", FormatDouble(last.reward)},
                   {"crashed", last.crashed ? "1" : "0"},
                   {"phase", tuner::SessionPhaseName(status->phase)}});
}

std::string HandleRound(TuningServer& server, const Command& command) {
  auto n = GetIntOr(command, "n", 1, 1, kInt64Max);
  if (!n.ok()) return FormatError(n.status());
  size_t stepped = 0;
  for (int64_t i = 0; i < *n; ++i) {
    auto count = server.StepRound();
    if (!count.ok()) return FormatError(count.status());
    stepped = *count;
    if (stepped == 0) break;  // Every session finished its budget.
  }
  return FormatOk({{"rounds", std::to_string(*n)},
                   {"sessions", std::to_string(stepped)}});
}

std::string HandleTrain(TuningServer& server, const Command& command) {
  auto n = GetInt(command, "n", kIntMin, kIntMax);
  if (!n.ok()) return FormatError(n.status());
  util::Status trained = server.Train(static_cast<int>(*n));
  if (!trained.ok()) return FormatError(trained);
  return FormatOk({{"trained", std::to_string(*n)}});
}

std::string HandleStatus(
    TuningServer& server, const Command& command,
    const std::vector<const TransportStatsSource*>& transports) {
  if (command.args.count("id") > 0) {
    auto id = GetInt(command, "id", kIntMin, kIntMax);
    if (!id.ok()) return FormatError(id.status());
    auto status = server.GetStatus(static_cast<int>(*id));
    if (!status.ok()) return FormatError(status.status());
    KeyValues pairs;
    AppendStatus(*status, &pairs);
    return FormatOk(pairs);
  }
  std::vector<SessionStatus> all = server.ListStatus();
  KeyValues pairs;
  pairs.emplace_back("sessions", std::to_string(all.size()));
  for (const SessionStatus& status : all) {
    pairs.emplace_back("s" + std::to_string(status.id),
                       std::string(tuner::SessionPhaseName(status.phase)) +
                           ":" + std::to_string(status.steps_done));
  }
  // Per-transport connection/back-pressure telemetry: one key block per
  // registered front end.
  for (const TransportStatsSource* source : transports) {
    const TransportStats stats = source->Scrape();
    const std::string& t = stats.name;
    pairs.emplace_back(t + "_conns", std::to_string(stats.connections));
    pairs.emplace_back(t + "_accepted", std::to_string(stats.accepted));
    pairs.emplace_back(t + "_shed", std::to_string(stats.shed_busy));
    pairs.emplace_back(t + "_paused", std::to_string(stats.read_pauses));
    pairs.emplace_back(t + "_sendq_drops", std::to_string(stats.sendq_drops));
    pairs.emplace_back(t + "_frames_in", std::to_string(stats.frames_in));
    pairs.emplace_back(t + "_frames_out", std::to_string(stats.frames_out));
  }
  return FormatOk(pairs);
}

std::string HandleBestConfig(TuningServer& server, const Command& command) {
  auto id = GetInt(command, "id", kIntMin, kIntMax);
  if (!id.ok()) return FormatError(id.status());
  auto rendered = server.RenderBestConfig(static_cast<int>(*id));
  if (!rendered.ok()) return FormatError(rendered.status());
  return FormatOk({{"id", std::to_string(*id)}, {"config", *rendered}});
}

std::string HandleSave(TuningServer& server, const Command& command) {
  std::string path = GetStringOr(command, "path", "");
  if (path.empty()) {
    return FormatError(util::Status::InvalidArgument("SAVE needs path=..."));
  }
  util::Status saved = server.SaveCheckpoint(path);
  if (!saved.ok()) return FormatError(saved);
  return FormatOk({{"path", path},
                   {"rounds", std::to_string(server.rounds_completed())}});
}

std::string HandleRestore(TuningServer& server, const Command& command) {
  std::string path = GetStringOr(command, "path", "");
  if (path.empty()) {
    return FormatError(util::Status::InvalidArgument("RESTORE needs path=..."));
  }
  auto report = server.RestoreCheckpoint(path);
  if (!report.ok()) return FormatError(report.status());
  return FormatOk({{"path", report->path},
                   {"generation", std::to_string(report->generation)},
                   {"dropped", std::to_string(report->dropped.size())},
                   {"sessions", std::to_string(report->sessions)},
                   {"rounds", std::to_string(report->rounds_completed)}});
}

/// Parses a dash-separated width list ("128-96-64"); empty input stays an
/// empty vector (keep the current architecture).
util::StatusOr<std::vector<size_t>> ParseWidths(const std::string& text) {
  std::vector<size_t> widths;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t dash = text.find('-', pos);
    if (dash == std::string::npos) dash = text.size();
    const std::string part = text.substr(pos, dash - pos);
    size_t consumed = 0;
    unsigned long value = 0;
    try {
      value = std::stoul(part, &consumed);
    } catch (...) {
      consumed = 0;
    }
    if (consumed != part.size() || part.empty() || value == 0) {
      return util::Status::InvalidArgument("bad layer width '" + part +
                                           "' (want e.g. 128-96-64)");
    }
    widths.push_back(static_cast<size_t>(value));
    pos = dash + 1;
  }
  if (widths.empty()) {
    return util::Status::InvalidArgument("empty width list");
  }
  return widths;
}

std::string HandleRebuild(TuningServer& server, const Command& command) {
  RebuildSpec spec;
  const std::string actor = GetStringOr(command, "actor_hidden", "");
  if (!actor.empty()) {
    auto widths = ParseWidths(actor);
    if (!widths.ok()) return FormatError(widths.status());
    spec.actor_hidden = std::move(*widths);
  }
  const std::string critic = GetStringOr(command, "critic_hidden", "");
  if (!critic.empty()) {
    auto widths = ParseWidths(critic);
    if (!widths.ok()) return FormatError(widths.status());
    spec.critic_hidden = std::move(*widths);
  }
  auto embed = GetIntOr(command, "critic_embed", 0, 0, kInt64Max);
  if (!embed.ok()) return FormatError(embed.status());
  spec.critic_embed = static_cast<size_t>(*embed);
  auto seed = GetIntOr(command, "seed", 0, 0, kInt64Max);
  if (!seed.ok()) return FormatError(seed.status());
  spec.seed = static_cast<uint64_t>(*seed);
  auto train = GetIntOr(command, "train", 0, kIntMin, kIntMax);
  if (!train.ok()) return FormatError(train.status());
  spec.train_iters = static_cast<int>(*train);

  auto report = server.Rebuild(spec);
  if (!report.ok()) return FormatError(report.status());
  return FormatOk({{"experiences", std::to_string(report->experiences)},
                   {"params_before", std::to_string(report->params_before)},
                   {"params_after", std::to_string(report->params_after)},
                   {"trained", std::to_string(spec.train_iters)}});
}

std::string HandleClose(TuningServer& server, const Command& command) {
  auto id = GetInt(command, "id", kIntMin, kIntMax);
  if (!id.ok()) return FormatError(id.status());
  auto result = server.Close(static_cast<int>(*id));
  if (!result.ok()) return FormatError(result.status());
  return FormatOk({{"id", std::to_string(*id)},
                   {"steps", std::to_string(result->steps)},
                   {"tps0", FormatDouble(result->initial.throughput)},
                   {"best_tps", FormatDouble(result->best.throughput)},
                   {"best_p99", FormatDouble(result->best.latency)}});
}

}  // namespace

DispatchResult Dispatcher::Dispatch(const std::string& request) const {
  TuningServer& server = *server_;
  DispatchResult result;
  auto parsed = ParseCommand(request);
  if (!parsed.ok()) {
    result.response = FormatError(parsed.status());
    return result;
  }
  const Command& command = *parsed;

  if (command.verb == "PING") {
    result.response = FormatOk({{"pong", "1"}});
  } else if (command.verb == "OPEN") {
    result.response = HandleOpen(server, command);
  } else if (command.verb == "STEP") {
    result.response = HandleStep(server, command);
  } else if (command.verb == "ROUND") {
    result.response = HandleRound(server, command);
  } else if (command.verb == "TRAIN") {
    result.response = HandleTrain(server, command);
  } else if (command.verb == "STATUS") {
    result.response = HandleStatus(server, command, transports_);
  } else if (command.verb == "BEST_CONFIG") {
    result.response = HandleBestConfig(server, command);
  } else if (command.verb == "CLOSE") {
    result.response = HandleClose(server, command);
  } else if (command.verb == "SAVE") {
    result.response = HandleSave(server, command);
  } else if (command.verb == "RESTORE") {
    result.response = HandleRestore(server, command);
  } else if (command.verb == "REBUILD") {
    result.response = HandleRebuild(server, command);
  } else if (command.verb == "SHUTDOWN") {
    result.shutdown = true;
    result.response = FormatOk({{"bye", "1"}});
  } else {
    result.response = FormatError(
        util::Status::NotFound("unknown verb '" + command.verb + "'"));
  }
  return result;
}

}  // namespace cdbtune::server
