// Lint fixture (never compiled): raw socket I/O outside the one sanctioned
// home (src/server/net). The include and each raw syscall below must be
// flagged by the blocking-socket rule — socket shutdown semantics live only
// in audited transport code.
#include <sys/socket.h>

namespace cdbtune::tuner {

int PhoneHome(const char* payload, int len) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (::connect(fd, nullptr, 0) != 0) return -1;
  return static_cast<int>(::send(fd, payload, len, 0));
}

}  // namespace cdbtune::tuner
