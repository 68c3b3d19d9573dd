// The benchmark's workloads: seeded tenant generation, the served stack
// (TuningServer behind the TCP front end), one request interface with an
// implementation per entry point (wire, dispatcher, server), and the
// per-workload request loops every run and every traced level share.
#ifndef CDBTUNE_E2EBENCH_WORKLOADS_H_
#define CDBTUNE_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "env/simulated_cdb.h"
#include "server/dispatch.h"
#include "server/net/frame_client.h"
#include "server/net/tcp_server.h"
#include "server/tuning_server.h"
#include "spans.h"
#include "tuner/cdbtune.h"

namespace cdbtune::e2e {

enum class Workload { kEpisodesSim, kEpisodesMini, kRoundsTrain, kRecover };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);
bool IsEpisodes(Workload w);

/// How much work each phase of a run does. Every count is fixed, so quality
/// metrics, checkpoint sizes and digests repeat exactly for a seed; the
/// timed phase does `per_second` units of work per second of --seconds
/// (about --seconds of wall time on a 4-core host). `--scale` shrinks the
/// other counts (the smoke test runs at 1%).
struct Plan {
  /// Episodes: tenants run before timing starts (excluded from latencies).
  /// Rounds: ROUND/TRAIN pairs before timing; the STATUS snapshot and the
  /// quality metric are taken after them. Recover: SAVE/RESTORE cycles.
  int64_t warmup = 0;
  /// Timed tenants, pairs or cycles per second of --seconds.
  double per_second = 0.0;
  /// Timed work for a run of `seconds`.
  int64_t Work(double seconds) const;
  /// Recover: ROUND/TRAIN pairs server A runs before the first SAVE.
  int64_t prep_pairs = 0;
  /// Work each traced level replays (tenants, pairs or cycles).
  int64_t trace_work = 0;
  /// Episodes: tenants replayed in-process to check the wire run.
  int64_t replay_sample = 0;
  /// Offline training steps of the standard model.
  int offline_steps = 200;
  /// Setups timed per run; setup_s is their median.
  int setup_reps = 3;
  /// Repetitions of each traced-run probe (checkpoint, engine, GEMM batch)
  /// and PINGs timed on the wire.
  int probe_reps = 3;
  int pings = 2000;
};
Plan MakePlan(Workload w, double scale);

/// One tenant: the OPEN request line the wire sees, and the same request as
/// a SessionSpec for the levels that call the server directly.
struct Tenant {
  int64_t index = 0;
  std::string open_line;
  server::SessionSpec spec;
};

/// Tenant `index` of workload `w` under `seed`; a pure function of the
/// three. Episodes draw a workload from the six names, a CDB-A..E shape
/// (mini: RAM from {8,12,16,32} GB on a 300 GB disk) and the guardrail on
/// half the tenants.
Tenant MakeTenant(Workload w, uint64_t seed, int64_t index);
/// Sessions opened during set-up and kept open for the whole run: 64 sim
/// tenants for rounds_train, 10 sim + 2 mini for recover, none otherwise.
std::vector<Tenant> ResidentTenants(Workload w, uint64_t seed);

/// The standard model: CdbTuneOptions{max_offline_steps, steps_per_episode
/// = 10, seed = 71} trained on sysbench_rw against a simulated CDB-A.
struct StandardModel {
  std::unique_ptr<env::SimulatedCdb> db;
  std::unique_ptr<tuner::CdbTuner> tuner;
};
StandardModel TrainStandardModel(int offline_steps);

server::TuningServerOptions ServerOptionsFor(Workload w);

/// What an entry point returned for one request: whether it succeeded, and
/// the response line with the session id removed (ids depend on arrival
/// order across threads; everything else must not).
struct Reply {
  bool ok = false;
  std::string payload;
  int id = -1;
};

/// Value of `key` in an "OK k=v ..." payload ("" when absent).
std::string Field(const std::string& payload, const std::string& key);

/// One entry point into the stack. Each traced level implements it at a
/// lower layer; the workload loops below run unchanged on any of them.
/// Level 3 renders its replies as the dispatcher would, so the payloads of
/// every level compare byte for byte.
class Target {
 public:
  virtual ~Target() = default;
  virtual Reply Open(const Tenant& tenant) = 0;
  virtual Reply Step(int id, int64_t tenant) = 0;
  virtual Reply Close(int id, int64_t tenant) = 0;
  virtual Reply Round(int64_t pair) = 0;
  virtual Reply Train(int64_t pair) = 0;
  virtual Reply Status(int id) = 0;
  virtual Reply Save(const std::string& path, int64_t cycle) = 0;
  virtual Reply Restore(const std::string& path, int64_t cycle) = 0;
  virtual Reply Ping() = 0;
};

/// Entry points, top to bottom.
enum class Level { kWire = 1, kDispatch = 2, kServer = 3 };

/// A TuningServer, its Dispatcher and (for the wire level) the TCP front
/// end on loopback with 4 workers. Targets made by Connect() must be
/// destroyed before the stack.
class ServedStack {
 public:
  ServedStack(Workload w, Level level, tuner::CdbTuner* model);
  ~ServedStack();

  ServedStack(const ServedStack&) = delete;
  ServedStack& operator=(const ServedStack&) = delete;

  bool ok() const { return ok_; }
  std::unique_ptr<Target> Connect();
  server::net::TcpServer* tcp() { return tcp_.get(); }

 private:
  Level level_;
  bool ok_ = false;
  std::unique_ptr<server::TuningServer> server_;
  std::unique_ptr<server::Dispatcher> dispatcher_;
  std::unique_ptr<server::net::TcpServer> tcp_;
};

/// Latency of every request a loop issued, by kind, plus the counts.
struct CallLog {
  Samples op;   // Episodes, pairs or cycles.
  Samples req;  // STEP, ROUND or RESTORE.
  /// Time spent in every request, timed or not.
  double total_us = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Merge(const CallLog& other);
};

/// Result of one tenant episode: the responses in order (for the replay
/// check and the digests) and best_tps / tps0 from the CLOSE reply (0 when
/// the episode failed).
struct EpisodeResult {
  std::vector<std::string> payloads;
  double gain = 0.0;
};

/// OPEN -> STEP x steps (fewer if the session finishes early) -> CLOSE.
EpisodeResult RunEpisode(Target& target, const Tenant& tenant, bool timed,
                         CallLog* log);

/// Opens every resident tenant, in index order.
bool OpenResidents(Target& target, const std::vector<Tenant>& residents,
                   CallLog* log);

/// One ROUND then one TRAIN n=1.
bool RunPair(Target& target, int64_t pair, bool timed, CallLog* log);

/// SAVE on `source`, then RESTORE of that checkpoint into `target`.
bool RunCycle(Target& source, Target& target, const std::string& path,
              int64_t cycle, bool timed, CallLog* log);

/// STATUS of sessions 0..sessions-1, in id order.
std::vector<std::string> SnapshotStatus(Target& target, size_t sessions,
                                        CallLog* log);

/// Geometric mean of best_tps / tps0 over STATUS payloads.
double GainFromStatus(const std::vector<std::string>& status_payloads);

}  // namespace cdbtune::e2e

#endif  // CDBTUNE_E2EBENCH_WORKLOADS_H_
