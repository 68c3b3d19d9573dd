#include "server/dispatch.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "env/instance.h"
#include "server/protocol.h"
#include "tuner/tuning_session.h"
#include "util/check.h"

namespace cdbtune::server {

struct CheckedRequest {
  /// One argument's checked value, in its row's type.
  struct Value {
    std::string_view text;  // Empty when the request lacks the key.
    int64_t integer = 0;
    double real = 0.0;
  };

  TuningServer& server;
  const std::vector<const TransportStatsSource*>& transports;
  const VerbRow& row;
  std::vector<Value> values;  // Parallel to row.args.
  bool shutdown = false;

  /// Index of `key` in row.args, or row.args.size() when the row has none.
  size_t Index(std::string_view key) const {
    return static_cast<size_t>(
        std::find_if(row.args.begin(), row.args.end(),
                     [&](const ArgRow& arg) { return arg.key == key; }) -
        row.args.begin());
  }

  const Value& At(std::string_view key) const {
    const size_t i = Index(key);
    CDBTUNE_CHECK(i < values.size()) << row.verb << " has no row " << key;
    return values[i];
  }

  /// The checked value of `key`, or `absent` when the request does not
  /// carry it. An int row's range fits `T`.
  template <typename T>
  T Get(std::string_view key, T absent = T()) const {
    const Value& value = At(key);
    if (value.text.empty()) return absent;
    if constexpr (std::is_integral_v<T>) {
      CDBTUNE_DCHECK(std::in_range<T>(value.integer)) << key;
      return static_cast<T>(value.integer);
    } else if constexpr (std::is_floating_point_v<T>) {
      return value.real;
    } else {
      return T(value.text);
    }
  }
};

namespace {

using KeyValues = std::vector<std::pair<std::string, std::string>>;

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

std::string HandleOpen(CheckedRequest& request) {
  SessionSpec spec;
  spec.engine = request.Get("engine", spec.engine);
  auto workload =
      WorkloadByName(request.Get<std::string>("workload", "sysbench_rw"));
  if (!workload.ok()) return FormatError(workload.status());
  spec.workload = *workload;
  spec.seed = request.Get("seed", spec.seed);
  spec.max_steps = request.Get("steps", spec.max_steps);
  spec.mini_table_rows = request.Get("rows", spec.mini_table_rows);
  spec.stress_duration_s = request.Get("stress_s", spec.stress_duration_s);
  spec.safety = request.Get("safety", spec.safety);
  spec.degrade_knob = request.Get("degrade", spec.degrade_knob);
  spec.degrade_after = request.Get("degrade_after", spec.degrade_after);
  spec.degrade_severity = request.Get("degrade_sev", spec.degrade_severity);
  spec.hardware = env::MakeInstance(
      "custom", request.Get("ram_gb", spec.hardware.ram_gb),
      request.Get("disk_gb", spec.hardware.disk_gb));

  auto id = request.server.Open(spec);
  if (!id.ok()) return FormatError(id.status());
  auto status = request.server.GetStatus(*id);
  if (!status.ok()) return FormatError(status.status());
  return FormatOk({{"id", std::to_string(*id)},
                   {"tps", FormatDouble(status->initial_throughput)},
                   {"p99", FormatDouble(status->initial_latency)}});
}

std::string HandleStep(CheckedRequest& request) {
  const int id = request.Get<int>("id");
  const int n = request.Get("n", 1);
  tuner::StepRecord last;
  for (int i = 0; i < n; ++i) {
    auto record = request.server.Step(id);
    if (!record.ok()) return FormatError(record.status());
    last = *record;
    if (last.crashed) break;
  }
  auto status = request.server.GetStatus(id);
  if (!status.ok()) return FormatError(status.status());
  return FormatOk({{"id", std::to_string(id)},
                   {"step", std::to_string(last.step)},
                   {"tps", FormatDouble(last.throughput)},
                   {"p99", FormatDouble(last.latency)},
                   {"reward", FormatDouble(last.reward)},
                   {"crashed", last.crashed ? "1" : "0"},
                   {"phase", tuner::SessionPhaseName(status->phase)}});
}

std::string HandleRound(CheckedRequest& request) {
  const int n = request.Get("n", 1);
  size_t stepped = 0;
  for (int i = 0; i < n; ++i) {
    auto count = request.server.StepRound();
    if (!count.ok()) return FormatError(count.status());
    stepped = *count;
    if (stepped == 0) break;  // Every session finished its budget.
  }
  return FormatOk({{"rounds", std::to_string(n)},
                   {"sessions", std::to_string(stepped)}});
}

std::string HandleTrain(CheckedRequest& request) {
  const int n = request.Get<int>("n");
  util::Status trained = request.server.Train(n);
  if (!trained.ok()) return FormatError(trained);
  return FormatOk({{"trained", std::to_string(n)}});
}

std::string HandleStatus(CheckedRequest& request) {
  if (!request.At("id").text.empty()) {
    auto status = request.server.GetStatus(request.Get<int>("id"));
    if (!status.ok()) return FormatError(status.status());
    KeyValues pairs;
    AppendStatus(*status, &pairs);
    return FormatOk(pairs);
  }
  std::vector<SessionStatus> all = request.server.ListStatus();
  KeyValues pairs;
  pairs.emplace_back("sessions", std::to_string(all.size()));
  for (const SessionStatus& status : all) {
    pairs.emplace_back("s" + std::to_string(status.id),
                       std::string(tuner::SessionPhaseName(status.phase)) +
                           ":" + std::to_string(status.steps_done));
  }
  // Per-transport connection/back-pressure telemetry: one key block per
  // registered front end.
  for (const TransportStatsSource* source : request.transports) {
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

std::string HandleBestConfig(CheckedRequest& request) {
  const int id = request.Get<int>("id");
  auto rendered = request.server.RenderBestConfig(id);
  if (!rendered.ok()) return FormatError(rendered.status());
  return FormatOk({{"id", std::to_string(id)}, {"config", *rendered}});
}

std::string HandleSave(CheckedRequest& request) {
  const std::string path = request.Get<std::string>("path");
  util::Status saved = request.server.SaveCheckpoint(path);
  if (!saved.ok()) return FormatError(saved);
  return FormatOk(
      {{"path", path},
       {"rounds", std::to_string(request.server.rounds_completed())}});
}

std::string HandleRestore(CheckedRequest& request) {
  auto report =
      request.server.RestoreCheckpoint(request.Get<std::string>("path"));
  if (!report.ok()) return FormatError(report.status());
  return FormatOk({{"path", report->path},
                   {"generation", std::to_string(report->generation)},
                   {"dropped", std::to_string(report->dropped.size())},
                   {"sessions", std::to_string(report->sessions)},
                   {"rounds", std::to_string(report->rounds_completed)}});
}

/// Parses a dash-separated width list ("128-96-64"), the one argument whose
/// text has structure of its own. DdpgOptions::Validate bounds the widths.
util::StatusOr<std::vector<size_t>> ParseWidths(std::string_view text) {
  std::vector<size_t> widths;
  for (const char *at = text.data(), *end = at + text.size(); at < end; ++at) {
    size_t width = 0;
    const auto [next, error] = std::from_chars(at, end, width);
    if (error != std::errc() || (next != end && *next != '-')) {
      return util::Status::InvalidArgument("bad layer widths '" +
                                           std::string(text) +
                                           "' (want e.g. 128-96-64)");
    }
    widths.push_back(width);
    at = next;
  }
  return widths;
}

std::string HandleRebuild(CheckedRequest& request) {
  RebuildSpec spec;
  for (auto [key, widths] : {std::pair{"actor_hidden", &spec.actor_hidden},
                             std::pair{"critic_hidden", &spec.critic_hidden}}) {
    // An absent key keeps the current architecture.
    auto parsed = ParseWidths(request.Get<std::string_view>(key));
    if (!parsed.ok()) return FormatError(parsed.status());
    *widths = std::move(*parsed);
  }
  spec.critic_embed = request.Get("critic_embed", spec.critic_embed);
  spec.seed = request.Get("seed", spec.seed);
  spec.train_iters = request.Get("train", spec.train_iters);

  auto report = request.server.Rebuild(spec);
  if (!report.ok()) return FormatError(report.status());
  return FormatOk({{"experiences", std::to_string(report->experiences)},
                   {"params_before", std::to_string(report->params_before)},
                   {"params_after", std::to_string(report->params_after)},
                   {"trained", std::to_string(spec.train_iters)}});
}

std::string HandleClose(CheckedRequest& request) {
  const int id = request.Get<int>("id");
  auto result = request.server.Close(id);
  if (!result.ok()) return FormatError(result.status());
  return FormatOk({{"id", std::to_string(id)},
                   {"steps", std::to_string(result->steps)},
                   {"tps0", FormatDouble(result->initial.throughput)},
                   {"best_tps", FormatDouble(result->best.throughput)},
                   {"best_p99", FormatDouble(result->best.latency)}});
}

/// Checks one argument's text against its row into *out.
util::Status CheckValue(const ArgRow& arg, const std::string& text,
                        CheckedRequest::Value* out) {
  out->text = text;
  if (arg.type == ArgRow::Type::kString) return util::Status::Ok();
  const char* last = text.data() + text.size();
  const std::from_chars_result parsed =
      arg.type == ArgRow::Type::kInt
          ? std::from_chars(text.data(), last, out->integer)
          : std::from_chars(text.data(), last, out->real);
  // Text too large for the type is still a number, just out of range.
  const bool number =
      parsed.ec != std::errc::invalid_argument && parsed.ptr == last;
  std::string why;
  if (arg.type == ArgRow::Type::kDouble) {
    if (!number || parsed.ec != std::errc() || !std::isfinite(out->real)) {
      why = "is not a finite number";
    }
  } else if (!number) {
    why = "is not an integer";
  } else if (parsed.ec != std::errc() || out->integer < arg.lo ||
             out->integer > arg.hi) {
    why = "is outside [" + std::to_string(arg.lo) + ", " +
          std::to_string(arg.hi) + "]";
  }
  if (why.empty()) return util::Status::Ok();
  return util::Status::InvalidArgument("argument " + std::string(arg.key) +
                                       "=" + text + " " + why);
}

}  // namespace

const std::vector<VerbRow>& Grammar() {
  using T = ArgRow::Type;
  constexpr bool kRequired = true;
  constexpr bool kOptional = false;
  // Ranges of the types values are narrowed to: int for ids and step
  // budgets, the non-negative int64 values for uint64_t / size_t fields.
  constexpr int64_t kIntMin = std::numeric_limits<int>::min();
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
  // Work caps: 100 is 10x the largest ROUND n any test, tool or doc sends;
  // 1000 gradient steps hold the exclusive barrier for ~7.5 s.
  constexpr int64_t kMaxSteps = 100;
  constexpr int64_t kMaxTrain = 1000;
  constexpr ArgRow id{"id", T::kInt, kRequired, kIntMin, kIntMax};
  constexpr ArgRow path{"path", T::kString, kRequired};
  static const std::vector<VerbRow> kGrammar = {
      {"PING", [](CheckedRequest&) { return FormatOk({{"pong", "1"}}); }, {}},
      {"OPEN",
       HandleOpen,
       {{"engine", T::kString},
        {"workload", T::kString},
        {"seed", T::kInt, kOptional, 0, kInt64Max},
        {"steps", T::kInt, kOptional, kIntMin, kIntMax},
        {"rows", T::kInt, kOptional, 0, kInt64Max},
        {"stress_s", T::kDouble},
        {"safety", T::kInt, kOptional, -1, 1},
        {"degrade", T::kString},
        {"degrade_after", T::kInt, kOptional, 0, kInt64Max},
        {"degrade_sev", T::kDouble},
        {"ram_gb", T::kDouble},
        {"disk_gb", T::kDouble}}},
      {"STEP", HandleStep, {id, {"n", T::kInt, kOptional, 1, kMaxSteps}}},
      {"ROUND", HandleRound, {{"n", T::kInt, kOptional, 1, kMaxSteps}}},
      {"TRAIN", HandleTrain, {{"n", T::kInt, kRequired, 0, kMaxTrain}}},
      {"STATUS", HandleStatus, {{"id", T::kInt, kOptional, kIntMin, kIntMax}}},
      {"BEST_CONFIG", HandleBestConfig, {id}},
      {"CLOSE", HandleClose, {id}},
      {"SAVE", HandleSave, {path}},
      {"RESTORE", HandleRestore, {path}},
      {"REBUILD",
       HandleRebuild,
       {{"actor_hidden", T::kString},
        {"critic_embed", T::kInt, kOptional, 0, kInt64Max},
        {"critic_hidden", T::kString},
        {"seed", T::kInt, kOptional, 0, kInt64Max},
        {"train", T::kInt, kOptional, 0, kMaxTrain}}},
      {"SHUTDOWN",
       [](CheckedRequest& request) {
         request.shutdown = true;
         return FormatOk({{"bye", "1"}});
       },
       {}},
  };
  return kGrammar;
}

DispatchResult Dispatcher::Dispatch(const std::string& request) const {
  auto parsed = ParseCommand(request);
  if (!parsed.ok()) return {FormatError(parsed.status())};
  const std::vector<VerbRow>& grammar = Grammar();
  const auto row = std::find_if(
      grammar.begin(), grammar.end(),
      [&](const VerbRow& r) { return r.verb == parsed->verb; });
  if (row == grammar.end()) {
    return {FormatError(
        util::Status::NotFound("unknown verb '" + parsed->verb + "'"))};
  }
  CheckedRequest checked{*server_, transports_, *row,
                         std::vector<CheckedRequest::Value>(row->args.size())};
  for (const auto& [key, text] : parsed->args) {
    const size_t i = checked.Index(key);
    util::Status valid =
        i < row->args.size()
            ? CheckValue(row->args[i], text, &checked.values[i])
            : util::Status::InvalidArgument(parsed->verb +
                                            " has no argument '" + key + "'");
    if (!valid.ok()) return {FormatError(valid)};
  }
  for (size_t i = 0; i < row->args.size(); ++i) {
    if (row->args[i].required && checked.values[i].text.empty()) {
      return {FormatError(util::Status::InvalidArgument(
          "missing required argument '" + std::string(row->args[i].key) +
          "'"))};
    }
  }
  std::string response = row->handler(checked);
  return {std::move(response), checked.shutdown};
}

}  // namespace cdbtune::server
