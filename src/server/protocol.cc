#include "server/protocol.h"

#include <cstdio>
#include <sstream>

namespace cdbtune::server {

util::StatusOr<Command> ParseCommand(const std::string& line) {
  std::istringstream is(line);
  Command command;
  if (!(is >> command.verb)) {
    return util::Status::InvalidArgument("empty command line");
  }
  std::string token;
  while (is >> token) {
    size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return util::Status::InvalidArgument("malformed argument '" + token +
                                           "' (want key=value)");
    }
    command.args[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return command;
}

std::string FormatOk(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::string out = "OK";
  for (const auto& [key, value] : pairs) {
    out += ' ';
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

std::string FormatError(const util::Status& status) {
  return std::string("ERR ") + util::StatusCodeToString(status.code()) + " " +
         status.message();
}

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

namespace {

util::StatusOr<int64_t> ParseInt(const std::string& key,
                                 const std::string& value, int64_t lo,
                                 int64_t hi) {
  int64_t parsed = 0;
  try {
    size_t pos = 0;
    parsed = std::stoll(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
  } catch (const std::exception&) {
    return util::Status::InvalidArgument("argument " + key + "=" + value +
                                         " is not an integer");
  }
  if (parsed < lo || parsed > hi) {
    return util::Status::InvalidArgument(
        "argument " + key + "=" + value + " is outside [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return parsed;
}

}  // namespace

util::StatusOr<int64_t> GetInt(const Command& command, const std::string& key,
                               int64_t lo, int64_t hi) {
  auto it = command.args.find(key);
  if (it == command.args.end()) {
    return util::Status::InvalidArgument("missing required argument '" + key +
                                         "'");
  }
  return ParseInt(key, it->second, lo, hi);
}

util::StatusOr<int64_t> GetIntOr(const Command& command, const std::string& key,
                                 int64_t fallback, int64_t lo, int64_t hi) {
  auto it = command.args.find(key);
  if (it == command.args.end()) return fallback;
  return ParseInt(key, it->second, lo, hi);
}

util::StatusOr<double> GetDoubleOr(const Command& command,
                                   const std::string& key, double fallback) {
  auto it = command.args.find(key);
  if (it == command.args.end()) return fallback;
  try {
    size_t pos = 0;
    double parsed = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument(it->second);
    return parsed;
  } catch (const std::exception&) {
    return util::Status::InvalidArgument("argument " + key + "=" + it->second +
                                         " is not a number");
  }
}

std::string GetStringOr(const Command& command, const std::string& key,
                        const std::string& fallback) {
  auto it = command.args.find(key);
  return it == command.args.end() ? fallback : it->second;
}

util::StatusOr<workload::WorkloadSpec> WorkloadByName(const std::string& name) {
  if (name == "sysbench_rw") return workload::SysbenchReadWrite();
  if (name == "sysbench_ro") return workload::SysbenchReadOnly();
  if (name == "sysbench_wo") return workload::SysbenchWriteOnly();
  if (name == "tpcc") return workload::Tpcc();
  if (name == "tpch") return workload::Tpch();
  if (name == "ycsb") return workload::Ycsb();
  return util::Status::NotFound("unknown workload '" + name +
                                "' (want sysbench_rw|sysbench_ro|sysbench_wo|"
                                "tpcc|tpch|ycsb)");
}

}  // namespace cdbtune::server
