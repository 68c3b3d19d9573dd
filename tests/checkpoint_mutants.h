#ifndef CDBTUNE_TESTS_CHECKPOINT_MUTANTS_H_
#define CDBTUNE_TESTS_CHECKPOINT_MUTANTS_H_

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "persist/chunk.h"
#include "util/random.h"

namespace cdbtune::tests {

/// Rebuilds the container with chunk `name`'s payload swapped for `payload`.
/// ChunkWriter recomputes every frame CRC, so the result passes Parse: the
/// corruption is *semantic*, inside one chunk, and each decode path has to
/// reject it on its own — the container CRC can't save it.
inline std::string RebuildWithPayload(const persist::ChunkFile& file,
                                      const std::string& name,
                                      const std::string& payload) {
  persist::ChunkWriter writer;
  for (const std::string& n : file.Names()) {
    auto original = file.Get(n);
    EXPECT_TRUE(original.ok());
    writer.Add(n, n == name ? payload : std::string(*original));
  }
  auto bytes = writer.Finish();
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

/// `payload` with its one occurrence of `from` replaced by `to`. Fails the
/// calling test when `from` is missing or ambiguous, so a format change
/// cannot silently turn a targeted mutant into an unmodified payload.
inline std::string ReplaceOnce(const std::string& payload,
                               const std::string& from, const std::string& to) {
  const size_t at = payload.find(from);
  EXPECT_NE(at, std::string::npos) << "pattern not found";
  if (at == std::string::npos) return payload;
  EXPECT_EQ(payload.find(from, at + 1), std::string::npos)
      << "pattern is ambiguous";
  return payload.substr(0, at) + to + payload.substr(at + from.size());
}

/// The corruption sweep's mutants of one chunk payload: the payload cut to
/// 0, 1, half and all-but-one bytes (each only if shorter than the payload),
/// then payload-size + 16 bytes of garbage drawn from `rng`.
inline std::vector<std::string> PayloadMutants(const std::string& payload,
                                               util::Rng& rng) {
  std::vector<std::string> mutants;
  for (size_t len : {size_t{0}, size_t{1}, payload.size() / 2,
                     payload.empty() ? size_t{0} : payload.size() - 1}) {
    if (len < payload.size()) mutants.push_back(payload.substr(0, len));
  }
  std::string garbage(payload.size() + 16, '\0');
  for (char& c : garbage) c = static_cast<char>(rng.UniformInt(0, 255));
  mutants.push_back(garbage);
  return mutants;
}

}  // namespace cdbtune::tests

#endif  // CDBTUNE_TESTS_CHECKPOINT_MUTANTS_H_
