#ifndef CDBTUNE_SERVER_PROTOCOL_H_
#define CDBTUNE_SERVER_PROTOCOL_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"
#include "workload/workload.h"

namespace cdbtune::server {

/// Wire format of the tuning server (DESIGN.md "Multi-session tuning
/// server"): newline-framed text, one request line -> one response line.
///
///   request  = VERB *(SP key "=" value)
///   response = "OK" *(SP key "=" value) | "ERR" SP code SP message
///
/// Verbs and keys are case-sensitive; keys and values contain no whitespace.
/// Doubles are rendered with %.17g so a response round-trips bit-exactly —
/// the protocol inherits the repo's determinism contract.
struct Command {
  std::string verb;
  std::map<std::string, std::string> args;
};

/// Parses one request line. Fails on an empty line, a malformed argument
/// (no key or no value), or a repeated key. Whether the verb and its
/// keys exist, and what their values may be, is the dispatcher's request
/// grammar (server::Grammar in dispatch.h).
util::StatusOr<Command> ParseCommand(const std::string& line);

/// Renders "OK k1=v1 k2=v2 ..." (pairs kept in the given order).
std::string FormatOk(
    const std::vector<std::pair<std::string, std::string>>& pairs);

/// Renders "ERR CODE message" from a non-OK status.
std::string FormatError(const util::Status& status);

/// Shortest-round-trip decimal rendering of a double (%.17g).
std::string FormatDouble(double value);

/// Maps a protocol workload name ("sysbench_rw", "sysbench_ro",
/// "sysbench_wo", "tpcc", "tpch", "ycsb") to its factory spec.
util::StatusOr<workload::WorkloadSpec> WorkloadByName(const std::string& name);

}  // namespace cdbtune::server

#endif  // CDBTUNE_SERVER_PROTOCOL_H_
