#ifndef CDBTUNE_SERVER_DISPATCH_H_
#define CDBTUNE_SERVER_DISPATCH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "server/tuning_server.h"

namespace cdbtune::server {

/// Point-in-time telemetry of one transport front end, scraped by the
/// STATUS verb so an operator can see the transport's connection and
/// back-pressure state through the protocol itself.
struct TransportStats {
  /// Key prefix in the STATUS response ("tcp").
  std::string name;
  /// Connections currently open (accepted and not yet closed).
  size_t connections = 0;
  /// Total connections accepted since start.
  uint64_t accepted = 0;
  /// Requests (or whole connections) turned away with the typed BUSY shed
  /// path — dispatch queue full or the connection budget exhausted.
  uint64_t shed_busy = 0;
  /// Read-pause transitions: how often back-pressure paused a connection's
  /// reads (in-flight request or output backlog above the watermark).
  uint64_t read_pauses = 0;
  /// Connections dropped for overflowing their bounded send queue (the
  /// slow-consumer / slow-loris shed path).
  uint64_t sendq_drops = 0;
  /// Frames decoded from / encoded to the wire.
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
};

/// Implemented by every transport front end; registered on the Dispatcher
/// so STATUS can scrape live telemetry. Scrape() must be safe to call from
/// any thread (front ends serve it from under their own lock).
class TransportStatsSource {
 public:
  virtual ~TransportStatsSource() = default;
  virtual TransportStats Scrape() const = 0;
};

/// Outcome of one dispatched request: the response payload (the "OK ..." /
/// "ERR ..." grammar of protocol.h) plus whether the request asked the
/// daemon to shut down — the transport decides what shutting down means
/// (the TCP front end unblocks WaitForShutdown; an in-process driver just
/// stops issuing requests).
struct DispatchResult {
  std::string response;
  bool shutdown = false;
};

/// One argument row of the request grammar. [lo, hi] is an int value's
/// inclusive range: the range of the type its handler narrows it to, or a
/// cap on the work one request may ask for.
struct ArgRow {
  enum class Type { kInt, kDouble, kString };
  std::string_view key;
  Type type = Type::kString;
  bool required = false;
  int64_t lo = 0;
  int64_t hi = 0;
};

/// A request whose arguments passed its verb's row (defined in dispatch.cc).
struct CheckedRequest;

/// One verb of the request grammar: its handler and its argument rows.
struct VerbRow {
  std::string_view verb;
  std::string (*handler)(CheckedRequest& request);
  std::vector<ArgRow> args;
};

/// The request grammar, one row per verb: the one statement of which verbs
/// and keys exist and which values they take. Read-only; the dispatcher
/// and the grammar fuzzer read the same rows.
const std::vector<VerbRow>& Grammar();

/// The transport-agnostic command dispatcher: the TCP front end and
/// in-process drivers hand their decoded request payloads here, so the
/// verb set, argument grammar, and server semantics exist exactly once.
/// Thread-safe for concurrent Dispatch once serving starts;
/// RegisterTransport is wiring-time only (before the front end Start()s).
///
/// Every request takes one path: ParseCommand, its verb's row in Grammar(),
/// then the handler. No handler runs until the row has rejected, with
/// INVALID_ARGUMENT naming the key, an unknown, repeated or missing
/// required key, an integer that is malformed or outside its row's range
/// (the work caps: STEP and ROUND n in [1, 100], TRAIN n and REBUILD train
/// in [0, 1000]), and a double that is not a finite number. An unknown verb
/// is NOT_FOUND. SessionSpec::Validate and DdpgOptions::Validate answer
/// INVALID_ARGUMENT on the wire and DATA_LOSS from a checkpoint.
class Dispatcher {
 public:
  explicit Dispatcher(TuningServer* server) : server_(server) {}

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Registers a front end for STATUS telemetry. Call before serving
  /// starts (the vector is read without a lock afterwards).
  void RegisterTransport(const TransportStatsSource* source) {
    transports_.push_back(source);
  }

  /// Executes one request payload and returns the response + shutdown flag.
  DispatchResult Dispatch(const std::string& request) const;

  TuningServer& server() const { return *server_; }

 private:
  TuningServer* server_;  // Not owned.
  std::vector<const TransportStatsSource*> transports_;  // Not owned.
};

}  // namespace cdbtune::server

#endif  // CDBTUNE_SERVER_DISPATCH_H_
