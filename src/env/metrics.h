#ifndef CDBTUNE_ENV_METRICS_H_
#define CDBTUNE_ENV_METRICS_H_

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace cdbtune::env {

/// Number of internal metrics exposed by the database ("show status"),
/// exactly as in the paper: 63 metrics = 14 state values + 49 cumulative
/// counters (Section 2.1.1).
inline constexpr size_t kNumInternalMetrics = 63;
inline constexpr size_t kNumStateMetrics = 14;
inline constexpr size_t kNumCumulativeMetrics = 49;

/// How a metric behaves over time, which decides how the metrics collector
/// turns samples into one state feature (Section 2.2.2): state values are
/// averaged over the interval; cumulative values are differenced.
enum class MetricKind { kState, kCumulative };

/// Kind of internal metric `index`: indices [0, 14) are state values,
/// [14, 63) cumulative counters.
MetricKind InternalMetricKind(size_t index);

/// Raw snapshot of the 63 internal metrics at one instant. Cumulative
/// entries are monotonically increasing counters since instance start;
/// state entries are point-in-time gauges.
using MetricsSnapshot = std::array<double, kNumInternalMetrics>;

/// External (performance) metrics, sampled every 5 seconds during a stress
/// test and aggregated by the collector (Section 2.2.2).
struct ExternalMetrics {
  /// Transactions per second.
  double throughput_tps = 0.0;
  /// 99th-percentile request latency in milliseconds.
  double latency_p99_ms = 0.0;
  /// Mean request latency in milliseconds.
  double latency_mean_ms = 0.0;
};

/// Outcome of one stress test (the paper's ~150 s workload run): the
/// counter snapshots bracketing the run plus aggregated performance.
struct StressResult {
  MetricsSnapshot before{};
  MetricsSnapshot after{};
  double duration_s = 0.0;
  ExternalMetrics external;
};

/// Index constants for the metrics the performance model populates
/// directly. Kept in one place so the simulator, the mini engine and tests
/// agree on the layout.
namespace metric_index {
// --- State values (gauges), indices 0..13 ---
inline constexpr size_t kBufferPoolPagesTotal = 0;
inline constexpr size_t kBufferPoolPagesFree = 1;
inline constexpr size_t kBufferPoolPagesDirty = 2;
inline constexpr size_t kBufferPoolPagesData = 3;
inline constexpr size_t kBufferPoolPagesMisc = 4;
inline constexpr size_t kPageSize = 5;
inline constexpr size_t kThreadsRunning = 6;
inline constexpr size_t kThreadsConnected = 7;
inline constexpr size_t kThreadsCached = 8;
inline constexpr size_t kOpenTables = 9;
inline constexpr size_t kOpenFiles = 10;
inline constexpr size_t kRowLockCurrentWaits = 11;
inline constexpr size_t kNumOpenFiles = 12;
inline constexpr size_t kQcacheFreeMemory = 13;
// --- Cumulative counters, indices 14..62 ---
inline constexpr size_t kBpReadRequests = 14;
inline constexpr size_t kBpReads = 15;
inline constexpr size_t kBpWriteRequests = 16;
inline constexpr size_t kBpPagesFlushed = 17;
inline constexpr size_t kBpReadAhead = 18;
inline constexpr size_t kBpReadAheadEvicted = 19;
inline constexpr size_t kBpWaitFree = 20;
inline constexpr size_t kDataRead = 21;
inline constexpr size_t kDataReads = 22;
inline constexpr size_t kDataWrites = 23;
inline constexpr size_t kDataWritten = 24;
inline constexpr size_t kDataFsyncs = 25;
inline constexpr size_t kDataPendingReads = 26;
inline constexpr size_t kDataPendingWrites = 27;
inline constexpr size_t kLogWriteRequests = 28;
inline constexpr size_t kLogWrites = 29;
inline constexpr size_t kLogWaits = 30;
inline constexpr size_t kOsLogFsyncs = 31;
inline constexpr size_t kOsLogWritten = 32;
inline constexpr size_t kPagesCreated = 33;
inline constexpr size_t kPagesRead = 34;
inline constexpr size_t kPagesWritten = 35;
inline constexpr size_t kRowsRead = 36;
inline constexpr size_t kRowsInserted = 37;
inline constexpr size_t kRowsUpdated = 38;
inline constexpr size_t kRowsDeleted = 39;
inline constexpr size_t kRowLockTime = 40;
inline constexpr size_t kRowLockWaits = 41;
inline constexpr size_t kRowLockTimeAvg = 42;
inline constexpr size_t kLockTimeouts = 43;
inline constexpr size_t kComSelect = 44;
inline constexpr size_t kComInsert = 45;
inline constexpr size_t kComUpdate = 46;
inline constexpr size_t kComDelete = 47;
inline constexpr size_t kComCommit = 48;
inline constexpr size_t kComRollback = 49;
inline constexpr size_t kQuestions = 50;
inline constexpr size_t kQueries = 51;
inline constexpr size_t kBytesReceived = 52;
inline constexpr size_t kBytesSent = 53;
inline constexpr size_t kCreatedTmpTables = 54;
inline constexpr size_t kCreatedTmpDiskTables = 55;
inline constexpr size_t kSortMergePasses = 56;
inline constexpr size_t kSortRows = 57;
inline constexpr size_t kSelectScan = 58;
inline constexpr size_t kSelectRange = 59;
inline constexpr size_t kTableLocksWaited = 60;
inline constexpr size_t kAbortedConnects = 61;
inline constexpr size_t kSlowQueries = 62;
}  // namespace metric_index

/// All 63 metric names in index order.
std::vector<std::string> AllInternalMetricNames();

}  // namespace cdbtune::env

#endif  // CDBTUNE_ENV_METRICS_H_
