#include "persist/atomic_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/logging.h"

namespace cdbtune::persist {
namespace {

std::string Errno(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

util::Status FsyncPath(const std::string& path, int flags) {
  int fd = ::open(path.c_str(), flags);
  if (fd < 0) return util::Status::Internal(Errno("open for fsync", path));
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return util::Status::Internal(Errno("fsync", path));
  return util::Status::Ok();
}

}  // namespace

util::StatusOr<std::string> ReadFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return util::Status::NotFound("no such file: " + path);
    }
    return util::Status::Internal(Errno("open", path));
  }
  // Read straight into a buffer sized by fstat, plus one spare byte so the
  // read that sees end-of-file needs no growth. The loop still copes with
  // short reads, EINTR, and a file whose size fstat cannot tell or that
  // changes while it is read.
  struct stat st {};
  const size_t expected = ::fstat(fd, &st) == 0 && st.st_size > 0
                              ? static_cast<size_t>(st.st_size)
                              : 0;
  std::string out(expected + 1, '\0');
  size_t len = 0;
  for (;;) {
    if (len == out.size()) {
      out.resize(std::max(2 * out.size(), size_t{1} << 16));
    }
    ssize_t n = ::read(fd, out.data() + len, out.size() - len);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return util::Status::Internal(Errno("read", path));
    }
    if (n == 0) break;
    len += static_cast<size_t>(n);
  }
  ::close(fd);
  out.resize(len);
  return out;
}

util::Status AtomicWriteFile(const std::string& path,
                             std::string_view contents) {
  // lint: allow(nondet-source) — pid only uniquifies the temp-file *name*
  // so concurrent writers cannot collide; the name is renamed away and
  // never reaches checkpoint bytes or tuning state.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return util::Status::Internal(Errno("open", tmp));

  size_t written = 0;
  while (written < contents.size()) {
    ssize_t n = ::write(fd, contents.data() + written,
                        contents.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      util::Status status = util::Status::Internal(Errno("write", tmp));
      ::close(fd);
      ::unlink(tmp.c_str());
      return status;
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    util::Status status = util::Status::Internal(Errno("fsync", tmp));
    ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  }
  if (::close(fd) != 0) {
    util::Status status = util::Status::Internal(Errno("close", tmp));
    ::unlink(tmp.c_str());
    return status;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    util::Status status =
        util::Status::Internal(Errno("rename to", path));
    ::unlink(tmp.c_str());
    return status;
  }
  // Persist the rename itself; without this a crash can resurrect the old
  // directory entry even though the data blocks are safe.
  return FsyncPath(DirOf(path), O_RDONLY | O_DIRECTORY);
}

CheckpointStore::CheckpointStore(std::string path, int keep_generations)
    : path_(std::move(path)),
      keep_generations_(keep_generations < 1 ? 1 : keep_generations) {}

std::string CheckpointStore::GenerationPath(int g) const {
  if (g <= 0) return path_;
  return path_ + "." + std::to_string(g);
}

util::Status CheckpointStore::Write(const ChunkWriter& writer) const {
  auto bytes = writer.Finish();
  CDBTUNE_RETURN_IF_ERROR(bytes.status());

  // Shift existing generations down before publishing: oldest falls off,
  // path -> path.1 -> ... Each step is a rename, so a crash mid-shift leaves
  // every generation intact under some name Load() probes.
  ::unlink(GenerationPath(keep_generations_ - 1).c_str());
  for (int g = keep_generations_ - 2; g >= 0; --g) {
    const std::string from = GenerationPath(g);
    const std::string to = GenerationPath(g + 1);
    if (::rename(from.c_str(), to.c_str()) != 0 && errno != ENOENT) {
      return util::Status::Internal(Errno("rotate " + from + " to", to));
    }
  }
  return AtomicWriteFile(path_, *bytes);
}

util::StatusOr<LoadedCheckpoint> CheckpointStore::Load() const {
  LoadedCheckpoint loaded;
  bool any_exists = false;
  for (int g = 0; g < keep_generations_; ++g) {
    const std::string path = GenerationPath(g);
    auto bytes = ReadFile(path);
    if (!bytes.ok()) {
      if (bytes.status().code() == util::StatusCode::kNotFound) continue;
      any_exists = true;
      loaded.dropped.push_back({path, bytes.status().ToString()});
      continue;
    }
    any_exists = true;
    auto file = ChunkFile::Parse(*std::move(bytes));
    if (!file.ok()) {
      CDBTUNE_LOG(Warning) << "checkpoint generation " << g << " (" << path
                           << ") unusable, falling back: "
                           << file.status().ToString();
      loaded.dropped.push_back({path, file.status().ToString()});
      continue;
    }
    loaded.file = *std::move(file);
    loaded.path = path;
    loaded.generation = g;
    return loaded;
  }
  if (!any_exists) {
    return util::Status::NotFound("no checkpoint at " + path_ +
                                  " (any generation)");
  }
  std::string detail;
  for (const auto& d : loaded.dropped) {
    detail += "\n  " + d.path + ": " + d.error;
  }
  return util::Status::DataLoss("every checkpoint generation at " + path_ +
                                " is corrupt:" + detail);
}

}  // namespace cdbtune::persist
