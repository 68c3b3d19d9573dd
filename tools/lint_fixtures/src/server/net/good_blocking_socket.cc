// Lint fixture (never compiled): the same raw socket traffic as
// bad_blocking_socket.cc, but inside src/server/net/ — the one sanctioned
// home of socket I/O — so the blocking-socket rule must stay silent here.
#include <sys/socket.h>

namespace cdbtune::server::net {

int PhoneHomeFixture(const char* payload, int len) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (::connect(fd, nullptr, 0) != 0) return -1;
  return static_cast<int>(::send(fd, payload, len, 0));
}

}  // namespace cdbtune::server::net
