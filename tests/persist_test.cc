// Tests for the crash-safe checkpoint subsystem (src/persist, DESIGN.md §9):
// the byte codec, CRC-guarded chunk container, torn-write detection at every
// byte offset, generation fallback, full-agent resume equivalence, and the
// all-or-nothing model file behind CdbTuner::SaveModel/LoadModel.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "checkpoint_mutants.h"
#include "env/simulated_cdb.h"
#include "gtest/gtest.h"
#include "persist/atomic_file.h"
#include "persist/chunk.h"
#include "persist/crc32.h"
#include "persist/encoding.h"
#include "rl/ddpg.h"
#include "tuner/cdbtune.h"
#include "util/random.h"
#include "util/thread_pool.h"

#include <unistd.h>

namespace cdbtune::persist {
namespace {

std::string TempPath(const std::string& tag) {
  return "/tmp/cdbtune_persist_test_" + std::to_string(::getpid()) + "_" + tag;
}

/// Removes `path` and every rotation generation CheckpointStore might have
/// left behind, so tests never see a previous run's files.
void CleanupGenerations(const std::string& path, int keep = 8) {
  std::remove(path.c_str());
  for (int g = 1; g < keep; ++g) {
    std::remove((path + "." + std::to_string(g)).c_str());
  }
}

// --- CRC32 -------------------------------------------------------------------

TEST(Crc32Test, KnownVectors) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
}

TEST(Crc32Test, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t crc = kCrc32Init;
  for (char c : data) crc = Crc32Extend(crc, &c, 1);
  EXPECT_EQ(crc, Crc32(data));
}

/// The CRC one bit at a time, straight from the polynomial: the reference
/// the table-driven Crc32 must reproduce.
uint32_t BitwiseCrc32(const unsigned char* data, size_t size) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtAnyLengthOffsetAndSplit) {
  util::Rng rng(2027);
  std::vector<unsigned char> buffer(4096 + 8);
  for (unsigned char& b : buffer) {
    b = static_cast<unsigned char>(rng.UniformInt(0, 255));
  }
  for (int trial = 0; trial < 300; ++trial) {
    const size_t offset = static_cast<size_t>(rng.UniformInt(0, 7));
    const size_t length = static_cast<size_t>(rng.UniformInt(0, 4096));
    const size_t split = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(length)));
    const unsigned char* data = buffer.data() + offset;
    const uint32_t expect = BitwiseCrc32(data, length);
    EXPECT_EQ(Crc32(data, length), expect)
        << "offset " << offset << " length " << length;
    const uint32_t head = Crc32Extend(kCrc32Init, data, split);
    EXPECT_EQ(Crc32Extend(head, data + split, length - split), expect)
        << "offset " << offset << " length " << length << " split " << split;
  }
}

TEST(Crc32Test, SensitiveToEveryBit) {
  std::string data = "checkpoint";
  const uint32_t clean = Crc32(data);
  data[3] ^= 0x01;
  EXPECT_NE(Crc32(data), clean);
}

// --- Encoder / Decoder -------------------------------------------------------

TEST(EncodingTest, RoundTripsEveryType) {
  Encoder enc;
  enc.WriteU8(0xAB);
  enc.WriteBool(true);
  enc.WriteBool(false);
  enc.WriteU32(0xDEADBEEF);
  enc.WriteU64(0x0123456789ABCDEFULL);
  enc.WriteI64(-42);
  enc.WriteDouble(3.141592653589793);
  enc.WriteDouble(-0.0);
  enc.WriteString("hello\0world");  // NUL-safe via length prefix.
  enc.WriteDoubleVec({1.5, -2.5, 1e-300});

  Decoder dec(enc.bytes());
  uint8_t u8 = 0;
  bool b1 = false, b2 = true;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double d1 = 0, d2 = 1;
  std::string s;
  std::vector<double> vec;
  ASSERT_TRUE(dec.ReadU8(&u8));
  ASSERT_TRUE(dec.ReadBool(&b1));
  ASSERT_TRUE(dec.ReadBool(&b2));
  ASSERT_TRUE(dec.ReadU32(&u32));
  ASSERT_TRUE(dec.ReadU64(&u64));
  ASSERT_TRUE(dec.ReadI64(&i64));
  ASSERT_TRUE(dec.ReadDouble(&d1));
  ASSERT_TRUE(dec.ReadDouble(&d2));
  ASSERT_TRUE(dec.ReadString(&s));
  ASSERT_TRUE(dec.ReadDoubleVec(&vec));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFULL);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(d1, 3.141592653589793);
  EXPECT_EQ(d2, -0.0);
  EXPECT_TRUE(std::signbit(d2));
  EXPECT_EQ(s, std::string("hello"));  // C-string literal stops at the NUL.
  EXPECT_EQ(vec, (std::vector<double>{1.5, -2.5, 1e-300}));
  EXPECT_TRUE(dec.Done());
  EXPECT_TRUE(dec.Finish().ok());
}

TEST(EncodingTest, DecoderErrorIsStickyAndReportsOffset) {
  Encoder enc;
  enc.WriteU32(7);
  Decoder dec(enc.bytes());
  uint64_t u64 = 0;
  EXPECT_FALSE(dec.ReadU64(&u64));  // Only 4 bytes available.
  EXPECT_FALSE(dec.ok());
  uint32_t u32 = 0;
  EXPECT_FALSE(dec.ReadU32(&u32));  // Sticky: even a fitting read fails now.
  EXPECT_EQ(dec.status().code(), util::StatusCode::kDataLoss);
  EXPECT_NE(dec.status().message().find("offset"), std::string::npos);
}

TEST(EncodingTest, FinishRejectsTrailingBytes) {
  Encoder enc;
  enc.WriteU32(1);
  enc.WriteU32(2);
  Decoder dec(enc.bytes());
  uint32_t v = 0;
  ASSERT_TRUE(dec.ReadU32(&v));
  util::Status done = dec.Finish();
  EXPECT_EQ(done.code(), util::StatusCode::kDataLoss);
}

TEST(EncodingTest, BoolRejectsNonCanonicalByte) {
  Encoder enc;
  enc.WriteU8(2);
  Decoder dec(enc.bytes());
  bool b = false;
  EXPECT_FALSE(dec.ReadBool(&b));
}

TEST(EncodingTest, DoubleVecGuardsImplausibleLength) {
  // A length prefix far larger than the remaining payload must fail cleanly
  // instead of attempting a giant allocation.
  Encoder enc;
  enc.WriteU64(1ULL << 60);
  Decoder dec(enc.bytes());
  std::vector<double> vec;
  EXPECT_FALSE(dec.ReadDoubleVec(&vec));
}

/// Doubles whose bits a value-level round trip could lose: NaNs with
/// payloads (quiet, signalling, negative), signed zeros, infinities and
/// denormals.
std::vector<double> AwkwardDoubles() {
  std::vector<double> values;
  for (uint64_t bits :
       {0x7FF8000000000123ULL, 0x7FF0000000000001ULL, 0xFFF80000DEADBEEFULL,
        0x8000000000000000ULL, 0x0000000000000000ULL, 0x7FF0000000000000ULL,
        0xFFF0000000000000ULL, 0x0000000000000001ULL, 0x800FFFFFFFFFFFFFULL,
        0x0010000000000000ULL, 0x3FF0000000000000ULL}) {
    values.push_back(std::bit_cast<double>(bits));
  }
  return values;
}

TEST(EncodingTest, BulkDoublesMatchPerElementBytes) {
  const std::vector<double> values = AwkwardDoubles();
  Encoder bulk, single;
  bulk.WriteDoubles(values.data(), values.size());
  for (double v : values) single.WriteDouble(v);
  EXPECT_EQ(bulk.bytes(), single.bytes());

  std::vector<double> read(values.size());
  Decoder dec(single.bytes());
  ASSERT_TRUE(dec.ReadDoubles(read.data(), read.size()));
  EXPECT_TRUE(dec.Done());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(read[i]),
              std::bit_cast<uint64_t>(values[i]))
        << "element " << i;
  }

  Encoder vec;
  vec.WriteDoubleVec(values);
  Encoder per_element;
  per_element.WriteU64(values.size());
  for (double v : values) per_element.WriteDouble(v);
  EXPECT_EQ(vec.bytes(), per_element.bytes());
}

TEST(EncodingTest, ReadDoublesRefusesImpossibleCountStickily) {
  Encoder enc;
  enc.WriteDouble(1.5);
  enc.WriteDouble(2.5);
  // 2^61 doubles are 2^64 bytes: a count check done in bytes would wrap
  // to 0 and pass.
  for (size_t count : {size_t{3}, size_t{1} << 61, SIZE_MAX / 4, SIZE_MAX}) {
    Decoder dec(enc.bytes());
    std::vector<double> out(4, -1.0);
    EXPECT_FALSE(dec.ReadDoubles(out.data(), count)) << count;
    EXPECT_EQ(out, std::vector<double>(4, -1.0)) << "output touched";
    EXPECT_EQ(dec.status().code(), util::StatusCode::kDataLoss);
    double d = 0.0;
    EXPECT_FALSE(dec.ReadDouble(&d)) << "error is not sticky";
    EXPECT_FALSE(dec.ReadDoubles(out.data(), 0)) << "error is not sticky";
  }
}

// --- Chunk container ---------------------------------------------------------

ChunkFile MustParse(const std::string& bytes) {
  auto file = ChunkFile::Parse(bytes);
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  return *std::move(file);
}

std::string TwoChunkContainer() {
  ChunkWriter writer;
  writer.Add("alpha", "payload-a");
  writer.Add("beta/nested", std::string("\x00\x01\x02", 3));
  auto bytes = writer.Finish();
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

TEST(ChunkTest, RoundTrip) {
  ChunkFile file = MustParse(TwoChunkContainer());
  EXPECT_EQ(file.chunk_count(), 2u);
  EXPECT_TRUE(file.Has("alpha"));
  EXPECT_FALSE(file.Has("gamma"));
  auto alpha = file.Get("alpha");
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(*alpha, "payload-a");
  auto beta = file.Get("beta/nested");
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ(*beta, std::string_view("\x00\x01\x02", 3));
  EXPECT_EQ(file.Names(), (std::vector<std::string>{"alpha", "beta/nested"}));
}

TEST(ChunkTest, WriterRejectsDuplicateAndReservedNames) {
  {
    ChunkWriter writer;
    writer.Add("same", "1");
    writer.Add("same", "2");
    EXPECT_FALSE(writer.Finish().ok());
  }
  {
    ChunkWriter writer;
    writer.Add(std::string(kEndChunkName), "x");
    EXPECT_FALSE(writer.Finish().ok());
  }
  {
    ChunkWriter writer;
    writer.Add("", "x");
    EXPECT_FALSE(writer.Finish().ok());
  }
}

TEST(ChunkTest, RejectsBadMagic) {
  std::string bytes = TwoChunkContainer();
  bytes[0] ^= 0x40;
  auto file = ChunkFile::Parse(bytes);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), util::StatusCode::kDataLoss);
}

TEST(ChunkTest, DetectsTruncationAtEveryLength) {
  // A write torn at ANY byte boundary — power loss mid-write without the
  // atomic rename — must never parse as a valid checkpoint.
  const std::string bytes = TwoChunkContainer();
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto file = ChunkFile::Parse(bytes.substr(0, len));
    EXPECT_FALSE(file.ok()) << "torn at byte " << len << " parsed as valid";
  }
  EXPECT_TRUE(ChunkFile::Parse(bytes).ok());
}

TEST(ChunkTest, DetectsSingleByteCorruptionAtEveryOffset) {
  // Flip one bit at every offset: either the frame CRCs, the magic check,
  // the __end__ commit record or the bounds checks must catch it.
  const std::string clean = TwoChunkContainer();
  for (size_t pos = 0; pos < clean.size(); ++pos) {
    std::string bytes = clean;
    bytes[pos] ^= 0x01;
    auto file = ChunkFile::Parse(bytes);
    EXPECT_FALSE(file.ok()) << "corruption at byte " << pos << " undetected";
  }
}

TEST(ChunkTest, RejectsTrailingGarbageAfterCommitRecord) {
  std::string bytes = TwoChunkContainer();
  bytes += "junk";
  EXPECT_FALSE(ChunkFile::Parse(bytes).ok());
}

TEST(ChunkTest, DecodeTagsChunkNameAndRequiresFullConsumption) {
  ChunkWriter writer;
  Encoder enc;
  enc.WriteU32(5);
  enc.WriteU32(6);
  writer.Add("pair", enc.Release());
  ChunkFile file = MustParse(*writer.Finish());

  // Under-consuming the payload is an error, and the error names the chunk.
  util::Status under = file.Decode("pair", [](Decoder& dec) {
    uint32_t v = 0;
    EXPECT_TRUE(dec.ReadU32(&v));
    return util::Status::Ok();
  });
  EXPECT_EQ(under.code(), util::StatusCode::kDataLoss);
  EXPECT_NE(under.message().find("pair"), std::string::npos);

  EXPECT_EQ(file.Decode("missing", [](Decoder&) {
                  return util::Status::Ok();
                }).code(),
            util::StatusCode::kNotFound);
}

// --- Atomic files & generations ----------------------------------------------

TEST(AtomicFileTest, WriteReadRoundTrip) {
  const std::string path = TempPath("atomic");
  const std::string payload("binary\0payload", 14);
  ASSERT_TRUE(AtomicWriteFile(path, payload).ok());
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
  std::remove(path.c_str());
}

TEST(AtomicFileTest, ReadsEmptyAndMultiBlockFiles) {
  const std::string path = TempPath("atomic_sizes");
  util::Rng rng(3);
  for (size_t size : {size_t{0}, size_t{1}, (size_t{1} << 16) + 3,
                      size_t{1} << 20}) {
    std::string payload(size, '\0');
    for (char& c : payload) c = static_cast<char>(rng.UniformInt(0, 255));
    ASSERT_TRUE(AtomicWriteFile(path, payload).ok());
    auto read = ReadFile(path);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(*read, payload) << size << " bytes";
  }
  std::remove(path.c_str());
}

TEST(AtomicFileTest, MissingFileIsNotFound) {
  auto read = ReadFile(TempPath("never_written"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), util::StatusCode::kNotFound);
}

TEST(AtomicFileTest, WriteIntoMissingDirectoryFails) {
  EXPECT_FALSE(
      AtomicWriteFile("/nonexistent_dir_cdbtune/x", "payload").ok());
}

ChunkWriter OneChunkWriter(const std::string& payload) {
  ChunkWriter writer;
  writer.Add("data", payload);
  return writer;
}

TEST(CheckpointStoreTest, RotatesGenerations) {
  const std::string path = TempPath("rotate");
  CleanupGenerations(path);
  CheckpointStore store(path, /*keep_generations=*/3);
  ASSERT_TRUE(store.Write(OneChunkWriter("gen0")).ok());
  ASSERT_TRUE(store.Write(OneChunkWriter("gen1")).ok());
  ASSERT_TRUE(store.Write(OneChunkWriter("gen2")).ok());
  ASSERT_TRUE(store.Write(OneChunkWriter("gen3")).ok());

  auto newest = store.Load();
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(newest->generation, 0);
  EXPECT_EQ(*newest->file.Get("data"), "gen3");
  EXPECT_TRUE(newest->dropped.empty());
  // Oldest retained generation is gen1; gen0 was rotated off the end.
  auto gen2 = ReadFile(store.GenerationPath(2));
  ASSERT_TRUE(gen2.ok());
  EXPECT_NE(gen2->find("gen1"), std::string::npos);
  CleanupGenerations(path);
}

TEST(CheckpointStoreTest, FallsBackPastTornNewestGeneration) {
  const std::string path = TempPath("fallback");
  CleanupGenerations(path);
  CheckpointStore store(path, 3);
  ASSERT_TRUE(store.Write(OneChunkWriter("old")).ok());
  ASSERT_TRUE(store.Write(OneChunkWriter("new")).ok());

  // Tear the newest file in half, as a crash mid-write (no rename) would
  // never do, but a buggy external copy might.
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(AtomicWriteFile(path, bytes->substr(0, bytes->size() / 2)).ok());

  auto loaded = store.Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->generation, 1);
  EXPECT_EQ(*loaded->file.Get("data"), "old");
  ASSERT_EQ(loaded->dropped.size(), 1u);
  EXPECT_EQ(loaded->dropped[0].path, path);
  CleanupGenerations(path);
}

TEST(CheckpointStoreTest, AllGenerationsCorruptIsDataLoss) {
  const std::string path = TempPath("allcorrupt");
  CleanupGenerations(path);
  CheckpointStore store(path, 2);
  ASSERT_TRUE(store.Write(OneChunkWriter("a")).ok());
  ASSERT_TRUE(store.Write(OneChunkWriter("b")).ok());
  ASSERT_TRUE(AtomicWriteFile(path, "garbage").ok());
  ASSERT_TRUE(AtomicWriteFile(store.GenerationPath(1), "garbage").ok());
  auto loaded = store.Load();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);
  CleanupGenerations(path);
}

TEST(CheckpointStoreTest, NoGenerationsIsNotFound) {
  const std::string path = TempPath("nothing");
  CleanupGenerations(path);
  CheckpointStore store(path, 3);
  auto loaded = store.Load();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

// --- Rng state ---------------------------------------------------------------

TEST(RngStateTest, SerializeRestoreContinuesIdentically) {
  util::Rng rng(1234);
  for (int i = 0; i < 100; ++i) rng.Uniform();
  const std::string state = rng.SerializeState();
  std::vector<double> expect;
  for (int i = 0; i < 50; ++i) expect.push_back(rng.Gaussian(0, 1));

  util::Rng restored(999);  // Different seed; state restore overrides it.
  ASSERT_TRUE(restored.RestoreState(state));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(restored.Gaussian(0, 1), expect[i]) << "draw " << i;
  }
}

TEST(RngStateTest, RestoreRejectsGarbageAndKeepsOldState) {
  util::Rng rng(7);
  const std::string good = rng.SerializeState();
  EXPECT_FALSE(rng.RestoreState("not an engine state"));
  EXPECT_EQ(rng.SerializeState(), good);  // Untouched on failure.
}

// --- Full-agent resume equivalence -------------------------------------------

rl::DdpgOptions SmallDdpg() {
  rl::DdpgOptions o;
  o.state_dim = 4;
  o.action_dim = 3;
  o.actor_hidden = {16, 16};
  o.critic_embed = 16;
  o.critic_hidden = {16};
  o.batch_size = 8;
  o.replay_capacity = 64;  // Small, so the test exercises ring wraparound.
  o.seed = 77;
  return o;
}

rl::Transition RandomTransition(util::Rng& rng) {
  rl::Transition t;
  for (int i = 0; i < 4; ++i) t.state.push_back(rng.Gaussian(0, 1));
  for (int i = 0; i < 3; ++i) t.action.push_back(rng.Uniform());
  for (int i = 0; i < 4; ++i) t.next_state.push_back(rng.Gaussian(0, 1));
  t.reward = rng.Gaussian(0, 1);
  t.terminal = rng.Bernoulli(0.1);
  return t;
}

/// An agent to restore into: a drawn one, or the draw-free restore target.
std::unique_ptr<rl::DdpgAgent> RestoreInto(bool draw_free) {
  if (draw_free) {
    return std::make_unique<rl::DdpgAgent>(SmallDdpg(), rl::kRestoreTarget);
  }
  return std::make_unique<rl::DdpgAgent>(SmallDdpg());
}

std::string SerializeAgent(const rl::DdpgAgent& agent) {
  ChunkWriter writer;
  agent.AppendChunks(writer);
  auto bytes = writer.Finish();
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

/// Drives `agent` through `steps` observe/train/explore steps; the explore
/// call advances the agent's noise + rng streams so the test covers them.
void Drive(rl::DdpgAgent& agent, util::Rng& env_rng, int steps) {
  std::vector<double> probe{0.5, -0.5, 1.0, 0.0};
  for (int i = 0; i < steps; ++i) {
    agent.Observe(RandomTransition(env_rng));
    agent.Act(probe, /*explore=*/true);
    agent.TrainStep();
    agent.DecayNoise();
  }
}

/// Checkpoint at step k, keep training to n; then restore the checkpoint
/// into a fresh agent, replay steps k..n, and require bitwise-identical
/// serialized state (weights, targets, optimizer moments, replay ring +
/// priorities, noise and rng streams). `threads` exercises the compute pool
/// configuration under which determinism must hold.
void ExpectResumeEquivalence(size_t threads) {
  util::ComputeContext::Get().SetThreads(threads);
  const int k = 90;  // Past the 64-slot replay capacity: ring has wrapped.
  const int extra = 40;

  rl::DdpgAgent live(SmallDdpg());
  util::Rng env_rng(4321);
  Drive(live, env_rng, k);
  const std::string checkpoint = SerializeAgent(live);
  const std::string env_state = env_rng.SerializeState();
  Drive(live, env_rng, extra);
  const std::string uninterrupted = SerializeAgent(live);

  // Restore into a drawn agent and into the draw-free restore target; both
  // must resume bitwise.
  for (bool draw_free : {false, true}) {
    SCOPED_TRACE(draw_free ? "restore target" : "drawn agent");
    auto resumed = RestoreInto(draw_free);
    ASSERT_TRUE(resumed->RestoreFromChunks(MustParse(checkpoint)).ok());
    util::Rng env_rng2(0);
    ASSERT_TRUE(env_rng2.RestoreState(env_state));
    Drive(*resumed, env_rng2, extra);
    const std::string after_restore = SerializeAgent(*resumed);

    EXPECT_EQ(uninterrupted, after_restore)
        << "restored agent diverged from the uninterrupted one";
  }
  util::ComputeContext::Get().SetThreads(0);
}

TEST(AgentCheckpointTest, ResumeBitwiseEquivalentSingleThread) {
  ExpectResumeEquivalence(1);
}

TEST(AgentCheckpointTest, ResumeBitwiseEquivalentFourThreads) {
  ExpectResumeEquivalence(4);
}

TEST(AgentCheckpointTest, SaveCapturesTargetsOptimizerNoiseAndReplay) {
  // A round-trip through the chunk format must preserve every chunk
  // bitwise, so AppendChunks -> RestoreFromChunks -> AppendChunks is a
  // fixed point.
  rl::DdpgAgent agent(SmallDdpg());
  util::Rng env_rng(5);
  Drive(agent, env_rng, 30);
  const std::string first = SerializeAgent(agent);

  for (bool draw_free : {false, true}) {
    SCOPED_TRACE(draw_free ? "restore target" : "drawn agent");
    auto loaded = RestoreInto(draw_free);
    ASSERT_TRUE(loaded->RestoreFromChunks(MustParse(first)).ok());
    EXPECT_EQ(SerializeAgent(*loaded), first);
    EXPECT_EQ(loaded->replay_size(), agent.replay_size());
  }
}

TEST(AgentCheckpointTest, OptionsMismatchIsRejectedBeforeAnyMutation) {
  rl::DdpgAgent agent(SmallDdpg());
  const ChunkFile file = MustParse(SerializeAgent(agent));

  rl::DdpgOptions other = SmallDdpg();
  other.actor_hidden = {8, 8};
  rl::DdpgAgent different(other);
  const std::string before = SerializeAgent(different);
  util::Status loaded = different.RestoreFromChunks(file);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), util::StatusCode::kDataLoss);
  EXPECT_NE(loaded.message().find("actor_hidden"), std::string::npos);
  EXPECT_EQ(SerializeAgent(different), before);
}

// Fuzz-style sweep: every chunk of a real agent checkpoint, truncated at
// several lengths and replaced with fixed-seed garbage. Every mutant must
// surface as a Status (no crash). The model-file sweep below covers the
// all-or-nothing half through CdbTuner::LoadModel.
TEST(AgentCheckpointTest, TruncatedOrGarbageChunkPayloadsFailCleanly) {
  rl::DdpgAgent agent(SmallDdpg());
  util::Rng env_rng(7);
  Drive(agent, env_rng, 12);
  ChunkFile file = MustParse(SerializeAgent(agent));

  util::Rng garbage_rng(99);
  for (const std::string& name : file.Names()) {
    auto original = file.Get(name);
    ASSERT_TRUE(original.ok());
    const std::string payload(*original);
    const std::vector<std::string> mutants =
        tests::PayloadMutants(payload, garbage_rng);
    for (size_t m = 0; m < mutants.size(); ++m) {
      ChunkFile mutated =
          MustParse(tests::RebuildWithPayload(file, name, mutants[m]));
      rl::DdpgAgent scratch(SmallDdpg());
      EXPECT_FALSE(scratch.RestoreFromChunks(mutated).ok())
          << "chunk " << name << " mutant " << m
          << " (payload " << mutants[m].size() << "B of " << payload.size()
          << "B) restored successfully";
    }
  }
}

// Well-formed, CRC-valid agent checkpoints that the agent cannot use. Each
// used to pass RestoreFromChunks or crash it:
//  - a replayed transition whose state, action or next_state is not the
//    agent's width (a 4000-double state overflowed the next TrainStep's
//    batch copy);
//  - agent/actor's first matrix header claiming 2^61 or 2^61 + 1 columns
//    (a SIGFPE and a std::length_error in the decoder);
//  - a replay ring holding fewer items than its capacity whose cursor is
//    not at the end, which no sequence of Adds leaves behind.
// Every one must be DATA_LOSS.
TEST(AgentCheckpointTest, TargetedMutantsAreDataLoss) {
  const rl::DdpgOptions options = SmallDdpg();
  rl::DdpgAgent agent(options);
  util::Rng env_rng(7);
  Drive(agent, env_rng, 12);
  const ChunkFile file = MustParse(SerializeAgent(agent));
  auto expect_data_loss = [&](const std::string& name,
                              const std::string& payload,
                              const std::string& what) {
    rl::DdpgAgent scratch(options, rl::kRestoreTarget);
    util::Status restored = scratch.RestoreFromChunks(
        MustParse(tests::RebuildWithPayload(file, name, payload)));
    EXPECT_EQ(restored.code(), util::StatusCode::kDataLoss)
        << what << ": " << restored.ToString();
  };

  util::Rng rng(11);
  const std::vector<std::pair<std::string, void (*)(rl::Transition&)>>
      reshapes = {
          {"4000-double state", [](rl::Transition& t) { t.state.resize(4000); }},
          {"short action", [](rl::Transition& t) { t.action.pop_back(); }},
          {"long next_state",
           [](rl::Transition& t) { t.next_state.push_back(0.0); }},
      };
  for (const auto& [what, reshape] : reshapes) {
    rl::PrioritizedReplay replay(options.replay_capacity);
    rl::Transition t = RandomTransition(rng);
    reshape(t);
    replay.Add(t);
    Encoder enc;
    replay.SaveBinary(enc);
    expect_data_loss("agent/replay", enc.bytes(), what);
  }

  const std::string actor(*file.Get("agent/actor"));
  Encoder first_header;
  first_header.WriteString("Linear");
  first_header.WriteU64(options.state_dim);
  first_header.WriteU64(options.actor_hidden[0]);
  for (uint64_t cols : {uint64_t{1} << 61, (uint64_t{1} << 61) + 1}) {
    Encoder mutated;
    mutated.WriteString("Linear");
    mutated.WriteU64(options.state_dim);
    mutated.WriteU64(cols);
    expect_data_loss(
        "agent/actor",
        tests::ReplaceOnce(actor, first_header.bytes(), mutated.bytes()),
        "actor header with " + std::to_string(cols) + " columns");
  }

  // 12 transitions in a 64-slot ring: next and size are both 12.
  const std::string replay(*file.Get("agent/replay"));
  Encoder cursor, moved_cursor;
  cursor.WriteU64(12);
  cursor.WriteU64(12);
  moved_cursor.WriteU64(5);
  moved_cursor.WriteU64(12);
  expect_data_loss(
      "agent/replay",
      tests::ReplaceOnce(replay, cursor.bytes(), moved_cursor.bytes()),
      "replay cursor inside an unfilled ring");
}

// --- Model files (CdbTuner::SaveModel / LoadModel) ---------------------------

/// A tuner over the full 63-metric state and MySQL knob space with narrow
/// networks, so model files stay small and the sweeps stay fast.
struct SmallTuner {
  std::unique_ptr<env::SimulatedCdb> db;
  std::unique_ptr<tuner::CdbTuner> tuner;
};

SmallTuner MakeTuner(uint64_t seed, int offline_steps) {
  SmallTuner t;
  t.db = env::SimulatedCdb::MysqlCdb(env::CdbA(), seed);
  tuner::CdbTuneOptions options;
  options.ddpg.actor_hidden = {16, 16};
  options.ddpg.critic_embed = 16;
  options.ddpg.critic_hidden = {16};
  options.ddpg.batch_size = 8;
  options.ddpg.replay_capacity = 64;
  options.max_offline_steps = offline_steps;
  options.steps_per_episode = 6;
  options.seed = seed;
  t.tuner = std::make_unique<tuner::CdbTuner>(
      t.db.get(), knobs::KnobSpace::AllTunable(&t.db->registry()), options);
  if (offline_steps > 0) t.tuner->OfflineTrain(workload::SysbenchReadWrite());
  return t;
}

/// Everything the tuner persists, as bytes: equal bytes mean equal weights,
/// optimizer moments, replay, streams, statistics and best action.
std::string ModelBytes(const tuner::CdbTuner& t) {
  const std::string path = TempPath("model_bytes");
  EXPECT_TRUE(t.SaveModel(path).ok());
  auto bytes = ReadFile(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  std::remove(path.c_str());
  return bytes.ok() ? *bytes : std::string();
}

/// The tuner's greedy recommendation for a fixed standardized state.
std::vector<double> Recommendation(tuner::CdbTuner& t) {
  const std::vector<double> probe(env::kNumInternalMetrics, 0.3);
  return t.agent().SelectAction(probe, /*noise=*/nullptr);
}

/// `path` must fail to load into `victim` and leave it exactly as it was.
void ExpectLoadRejected(tuner::CdbTuner& victim, const std::string& path,
                        const std::string& what) {
  const std::string before = ModelBytes(victim);
  const std::vector<double> recommended = Recommendation(victim);
  util::Status loaded = victim.LoadModel(path);
  EXPECT_FALSE(loaded.ok()) << what << " loaded successfully";
  EXPECT_EQ(Recommendation(victim), recommended)
      << what << " changed the tuner's recommendation";
  EXPECT_EQ(ModelBytes(victim), before) << what << " partially applied";
}

TEST(ModelFileTest, CorruptFileLeavesTunerUntouched) {
  const std::string path = TempPath("model_corrupt");
  SmallTuner trained = MakeTuner(5, 12);
  ASSERT_TRUE(trained.tuner->SaveModel(path).ok());
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupt = *bytes;
  corrupt[corrupt.size() / 2] ^= 0x10;
  ASSERT_TRUE(AtomicWriteFile(path, corrupt).ok());

  SmallTuner victim = MakeTuner(6, 6);
  ExpectLoadRejected(*victim.tuner, path, "bit-flipped model file");
  EXPECT_EQ(victim.tuner->LoadModel(path).code(), util::StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(ModelFileTest, TornFileLeavesTunerUntouched) {
  const std::string path = TempPath("model_torn");
  SmallTuner trained = MakeTuner(5, 12);
  ASSERT_TRUE(trained.tuner->SaveModel(path).ok());
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  const std::string full = *bytes;

  SmallTuner victim = MakeTuner(6, 6);
  for (size_t len : {size_t{0}, kCheckpointMagicSize, full.size() / 2,
                     full.size() - 1}) {
    ASSERT_TRUE(AtomicWriteFile(path, full.substr(0, len)).ok());
    ExpectLoadRejected(*victim.tuner, path,
                       "model file torn at " + std::to_string(len) + "B");
  }
  std::remove(path.c_str());
}

// One model file loads into tuners constructed with any seed: `seed` only
// names the initial rng/noise streams, and LoadModel adopts the file's live
// streams. Afterwards the adopter is bitwise identical to the saver and stays
// identical under further training.
TEST(ModelFileTest, LoadAcceptsDifferentConstructionSeed) {
  const std::string path = TempPath("model_seed_adopt");
  SmallTuner trained = MakeTuner(5, 12);
  ASSERT_TRUE(trained.tuner->SaveModel(path).ok());

  SmallTuner adopter = MakeTuner(9001, 0);
  ASSERT_TRUE(adopter.tuner->LoadModel(path).ok());
  EXPECT_EQ(ModelBytes(*adopter.tuner), ModelBytes(*trained.tuner));

  const std::vector<double> probe(env::kNumInternalMetrics, 0.1);
  for (tuner::CdbTuner* t : {trained.tuner.get(), adopter.tuner.get()}) {
    for (int i = 0; i < 5; ++i) {
      t->agent().Act(probe, /*explore=*/true);
      t->agent().TrainStep();
    }
  }
  EXPECT_EQ(ModelBytes(*adopter.tuner), ModelBytes(*trained.tuner));
  std::remove(path.c_str());
}

// The model-file sweep: every chunk of a SaveModel file, truncated and
// replaced with garbage inside a re-CRC'd container. LoadModel must return a
// Status for each and leave the victim bitwise untouched.
TEST(ModelFileTest, TruncatedOrGarbageChunkPayloadsFailCleanly) {
  const std::string path = TempPath("model_fuzz");
  SmallTuner trained = MakeTuner(5, 12);
  ChunkFile file = MustParse(ModelBytes(*trained.tuner));
  ASSERT_TRUE(file.Has("model/meta"));

  SmallTuner victim = MakeTuner(6, 6);
  util::Rng garbage_rng(99);
  for (const std::string& name : file.Names()) {
    auto original = file.Get(name);
    ASSERT_TRUE(original.ok());
    const std::vector<std::string> mutants =
        tests::PayloadMutants(std::string(*original), garbage_rng);
    for (size_t m = 0; m < mutants.size(); ++m) {
      ASSERT_TRUE(AtomicWriteFile(
          path, tests::RebuildWithPayload(file, name, mutants[m])).ok());
      ExpectLoadRejected(*victim.tuner, path,
                         "chunk " + name + " mutant " + std::to_string(m));
    }
  }
  std::remove(path.c_str());
}

// Well-formed meta chunks carrying values the tuner cannot use: collector
// statistics of the wrong dimension, and a best action that is neither
// empty nor one entry per knob (which would abort the first tuning session
// that deploys it). Both are kDataLoss at load time.
TEST(ModelFileTest, MetaOfWrongShapeIsDataLoss) {
  const std::string path = TempPath("model_meta_shape");
  SmallTuner trained = MakeTuner(5, 12);
  ChunkFile file = MustParse(ModelBytes(*trained.tuner));
  SmallTuner victim = MakeTuner(6, 6);

  Encoder wrong_dim;
  wrong_dim.WriteU64(7);
  for (int i = 0; i < 7; ++i) {
    wrong_dim.WriteU64(3);
    for (int f = 0; f < 4; ++f) wrong_dim.WriteDouble(1.0);
  }
  wrong_dim.WriteDouble(1.0);
  wrong_dim.WriteDoubleVec({});

  Encoder short_action;
  trained.tuner->collector().SaveBinary(short_action);
  short_action.WriteDouble(1.0);
  short_action.WriteDoubleVec({0.5, 0.5, 0.5});

  for (const Encoder* meta : {&wrong_dim, &short_action}) {
    ASSERT_TRUE(AtomicWriteFile(path, tests::RebuildWithPayload(
                                          file, "model/meta", meta->bytes()))
                    .ok());
    ExpectLoadRejected(*victim.tuner, path, "reshaped model/meta");
    EXPECT_EQ(victim.tuner->LoadModel(path).code(),
              util::StatusCode::kDataLoss);
  }
  std::remove(path.c_str());
}

// An agent-only checkpoint (no model/meta chunk) is not a model file.
TEST(ModelFileTest, AgentOnlyCheckpointIsRejected) {
  const std::string path = TempPath("model_agent_only");
  SmallTuner trained = MakeTuner(5, 12);
  ASSERT_TRUE(
      AtomicWriteFile(path, SerializeAgent(trained.tuner->agent())).ok());
  SmallTuner victim = MakeTuner(6, 6);
  ExpectLoadRejected(*victim.tuner, path, "agent-only checkpoint");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cdbtune::persist
