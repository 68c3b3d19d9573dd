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
    if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
      return util::Status::InvalidArgument("malformed argument '" + token +
                                           "' (want key=value)");
    }
    const std::string key = token.substr(0, eq);
    if (!command.args.emplace(key, token.substr(eq + 1)).second) {
      return util::Status::InvalidArgument("repeated argument '" + key + "'");
    }
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
