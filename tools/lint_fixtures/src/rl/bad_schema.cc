// Fixture for tools/schema.py. Each writer/reader pair below violates one
// wire-schema rule; lint_selftest.py asserts the exact finding counts.
// Never compiled — scanned only.
#include <cstdint>
#include <string>

namespace cdbtune::rl {

struct PackedState {
  double gain;
  double bias;
};

// schema-asymmetry: `ticks_` goes out as i64 but comes back as u64.
// raw-schema: the whole struct is appended with AppendRaw, so padding and
// field layout leak into the byte stream unnamed.
void SaveCounterBinary(persist::Encoder& enc, const PackedState& s) {
  enc.WriteDouble(s.gain);
  enc.WriteI64(ticks_);
  enc.AppendRaw(&s, sizeof(s));
}

util::Status LoadCounterBinary(persist::Decoder& dec, PackedState* s) {
  uint64_t ticks = 0;
  if (!dec.ReadDouble(&s->gain) || !dec.ReadU64(&ticks)) return dec.status();
  return util::Status::Ok();
}

// schema-unpaired: bytes written here can never be decoded — there is no
// LoadOrphanBinary / RestoreOrphanBinary anywhere.
void SaveOrphanBinary(persist::Encoder& enc) {
  enc.WriteU32(7);
}

// schema-unextractable: FlushMystery is not a known Encoder primitive, so
// the writer's field sequence cannot be proven statically.
void SaveDynamicBinary(persist::Encoder& enc, const PackedState& s) {
  enc.WriteDouble(s.bias);
  enc.FlushMystery(s);
}

util::Status LoadDynamicBinary(persist::Decoder& dec, PackedState* s) {
  if (!dec.ReadDouble(&s->bias)) return dec.status();
  return util::Status::Ok();
}

// schema-asymmetry: WriteDoubles moves a whole array, but the reader takes
// one double back.
void SaveWeightsBinary(persist::Encoder& enc, const double* w, size_t n) {
  enc.WriteDoubles(w, n);
}

util::Status LoadWeightsBinary(persist::Decoder& dec, double* w) {
  if (!dec.ReadDouble(w)) return dec.status();
  return util::Status::Ok();
}

}  // namespace cdbtune::rl
