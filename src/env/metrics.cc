#include "env/metrics.h"

#include "util/check.h"

namespace cdbtune::env {

namespace {
constexpr const char* kMetricNames[kNumInternalMetrics] = {
    // 14 state values.
    "innodb_buffer_pool_pages_total",
    "innodb_buffer_pool_pages_free",
    "innodb_buffer_pool_pages_dirty",
    "innodb_buffer_pool_pages_data",
    "innodb_buffer_pool_pages_misc",
    "innodb_page_size",
    "threads_running",
    "threads_connected",
    "threads_cached",
    "open_tables",
    "open_files",
    "innodb_row_lock_current_waits",
    "innodb_num_open_files",
    "qcache_free_memory",
    // 49 cumulative counters.
    "innodb_buffer_pool_read_requests",
    "innodb_buffer_pool_reads",
    "innodb_buffer_pool_write_requests",
    "innodb_buffer_pool_pages_flushed",
    "innodb_buffer_pool_read_ahead",
    "innodb_buffer_pool_read_ahead_evicted",
    "innodb_buffer_pool_wait_free",
    "innodb_data_read",
    "innodb_data_reads",
    "innodb_data_writes",
    "innodb_data_written",
    "innodb_data_fsyncs",
    "innodb_data_pending_reads",
    "innodb_data_pending_writes",
    "innodb_log_write_requests",
    "innodb_log_writes",
    "innodb_log_waits",
    "innodb_os_log_fsyncs",
    "innodb_os_log_written",
    "innodb_pages_created",
    "innodb_pages_read",
    "innodb_pages_written",
    "innodb_rows_read",
    "innodb_rows_inserted",
    "innodb_rows_updated",
    "innodb_rows_deleted",
    "innodb_row_lock_time",
    "innodb_row_lock_waits",
    "innodb_row_lock_time_avg",
    "lock_timeouts",
    "com_select",
    "com_insert",
    "com_update",
    "com_delete",
    "com_commit",
    "com_rollback",
    "questions",
    "queries",
    "bytes_received",
    "bytes_sent",
    "created_tmp_tables",
    "created_tmp_disk_tables",
    "sort_merge_passes",
    "sort_rows",
    "select_scan",
    "select_range",
    "table_locks_waited",
    "aborted_connects",
    "slow_queries",
};
}  // namespace

MetricKind InternalMetricKind(size_t index) {
  CDBTUNE_CHECK(index < kNumInternalMetrics) << "metric index " << index;
  return index < kNumStateMetrics ? MetricKind::kState
                                  : MetricKind::kCumulative;
}

std::vector<std::string> AllInternalMetricNames() {
  std::vector<std::string> names;
  names.reserve(kNumInternalMetrics);
  for (size_t i = 0; i < kNumInternalMetrics; ++i) {
    names.emplace_back(kMetricNames[i]);
  }
  return names;
}

}  // namespace cdbtune::env
