#include "persist/chunk.h"

#include <cstring>
#include <utility>

#include "persist/crc32.h"

namespace cdbtune::persist {
namespace {

void AppendFrame(std::string* out, std::string_view name,
                 std::string_view payload) {
  const size_t frame_start = out->size();
  Encoder enc(out);
  enc.WriteU32(static_cast<uint32_t>(name.size()));
  enc.AppendRaw(name.data(), name.size());
  enc.WriteU64(payload.size());
  enc.AppendRaw(payload.data(), payload.size());
  enc.WriteU32(Crc32(out->data() + frame_start, out->size() - frame_start));
}

}  // namespace

void ChunkWriter::Add(std::string name, std::string payload) {
  chunks_.emplace_back(std::move(name), std::move(payload));
}

util::StatusOr<std::string> ChunkWriter::Finish() const {
  Encoder end_payload;
  end_payload.WriteU64(chunks_.size());
  // Frame overhead: u32 name length, u64 payload length, u32 CRC.
  constexpr size_t kFrameOverhead = 4 + 8 + 4;
  size_t total = kCheckpointMagicSize + kFrameOverhead + kEndChunkName.size() +
                 end_payload.bytes().size();
  for (const auto& [name, payload] : chunks_) {
    total += kFrameOverhead + name.size() + payload.size();
  }
  std::string out;
  out.reserve(total);
  out.append(kCheckpointMagic, kCheckpointMagicSize);
  for (size_t i = 0; i < chunks_.size(); ++i) {
    const std::string& name = chunks_[i].first;
    if (name.empty() || name == kEndChunkName) {
      return util::Status::InvalidArgument("reserved chunk name: \"" + name +
                                           "\"");
    }
    for (size_t j = i + 1; j < chunks_.size(); ++j) {
      if (chunks_[j].first == name) {
        return util::Status::InvalidArgument("duplicate chunk name: \"" + name +
                                             "\"");
      }
    }
    AppendFrame(&out, name, chunks_[i].second);
  }
  AppendFrame(&out, kEndChunkName, end_payload.bytes());
  return out;
}

util::StatusOr<ChunkFile> ChunkFile::Parse(std::string bytes) {
  const size_t total_size = bytes.size();  // `bytes` is moved below.
  auto corrupt = [total_size](size_t offset, const std::string& what) {
    return util::Status::DataLoss("corrupt checkpoint at byte offset " +
                                  std::to_string(offset) + " of " +
                                  std::to_string(total_size) + ": " + what);
  };

  if (bytes.size() < kCheckpointMagicSize) {
    return corrupt(0, "shorter than the magic header");
  }
  if (std::memcmp(bytes.data(), kCheckpointMagic, kCheckpointMagicSize) != 0) {
    return corrupt(0, "bad magic (not a checkpoint, or unsupported version)");
  }

  ChunkFile file;
  file.bytes_ = std::move(bytes);
  const std::string& data = file.bytes_;

  size_t pos = kCheckpointMagicSize;
  bool saw_end = false;
  uint64_t declared_count = 0;
  while (pos < data.size()) {
    if (saw_end) {
      return corrupt(pos, "bytes after the __end__ commit frame");
    }
    const size_t frame_start = pos;
    Decoder header(std::string_view(data).substr(pos));
    uint32_t name_len = 0;
    if (!header.ReadU32(&name_len) || name_len > header.remaining()) {
      return corrupt(frame_start, "truncated or oversized chunk name");
    }
    std::string name(data.data() + pos + 4, name_len);
    uint64_t payload_len = 0;
    Decoder len_dec(std::string_view(data).substr(pos + 4 + name_len));
    if (!len_dec.ReadU64(&payload_len) || payload_len > len_dec.remaining()) {
      return corrupt(frame_start, "truncated or oversized chunk payload");
    }
    const size_t payload_off = pos + 4 + name_len + 8;
    const size_t crc_off = payload_off + payload_len;
    if (crc_off + 4 > data.size()) {
      return corrupt(frame_start, "chunk frame runs past end of file");
    }
    Decoder crc_dec(std::string_view(data).substr(crc_off, 4));
    uint32_t stored_crc = 0;
    crc_dec.ReadU32(&stored_crc);
    const uint32_t actual_crc =
        Crc32(data.data() + frame_start, crc_off - frame_start);
    if (stored_crc != actual_crc) {
      return corrupt(frame_start, "CRC mismatch in chunk \"" + name + "\"");
    }

    if (name == kEndChunkName) {
      Decoder end_dec(std::string_view(data).substr(payload_off, payload_len));
      if (!end_dec.ReadU64(&declared_count) || !end_dec.Done()) {
        return corrupt(frame_start, "malformed __end__ commit frame");
      }
      saw_end = true;
    } else {
      if (!file.index_.emplace(name, std::make_pair(payload_off, payload_len))
               .second) {
        return corrupt(frame_start, "duplicate chunk name \"" + name + "\"");
      }
      file.order_.push_back(std::move(name));
    }
    pos = crc_off + 4;
  }
  if (!saw_end) {
    return corrupt(pos, "missing __end__ commit frame (torn write?)");
  }
  if (declared_count != file.index_.size()) {
    return corrupt(pos, "__end__ declares " + std::to_string(declared_count) +
                            " chunks but file holds " +
                            std::to_string(file.index_.size()));
  }
  return file;
}

bool ChunkFile::Has(std::string_view name) const {
  return index_.find(name) != index_.end();
}

util::StatusOr<std::string_view> ChunkFile::Get(std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return util::Status::NotFound("checkpoint chunk \"" + std::string(name) +
                                  "\" not present");
  }
  return std::string_view(bytes_).substr(it->second.first, it->second.second);
}

std::vector<std::string> ChunkFile::Names() const { return order_; }

}  // namespace cdbtune::persist
