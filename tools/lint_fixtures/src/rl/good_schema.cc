// Clean twin of bad_schema.cc: the same shapes, each discharged with a
// reasoned `schema: allow(...)` annotation. lint_selftest.py proves the
// suppressions are honored (zero active findings, each visible under
// --include-suppressed). Never compiled — scanned only.
#include <cstdint>
#include <string>
#include <vector>

namespace cdbtune::rl {

struct PackedState {
  double gain;
  double bias;
};

void SaveCounterBinary(persist::Encoder& enc, const PackedState& s) {
  enc.WriteDouble(s.gain);
  // schema: allow(schema-asymmetry) — v1 files wrote i64; the reader widens
  // to u64 on purpose and rejects negatives itself (fixture).
  enc.WriteI64(ticks_);
  // schema: allow(raw-schema) — PackedState is static_asserted to be two
  // packed doubles with no padding; raw append is the documented fast path
  // (fixture).
  enc.AppendRaw(&s, sizeof(s));
}

util::Status LoadCounterBinary(persist::Decoder& dec, PackedState* s) {
  uint64_t ticks = 0;
  if (!dec.ReadDouble(&s->gain) || !dec.ReadU64(&ticks)) return dec.status();
  return util::Status::Ok();
}

// schema: allow(schema-unpaired) — the decoder lives in a sibling repo that
// consumes this export feed; symmetry is covered by its conformance suite
// (fixture).
void SaveOrphanBinary(persist::Encoder& enc) {
  enc.WriteU32(7);
}

void SaveDynamicBinary(persist::Encoder& enc, const PackedState& s) {
  enc.WriteDouble(s.bias);
  // schema: allow(schema-unextractable) — FlushMystery appends nothing; it
  // only pokes instrumentation counters (fixture).
  enc.FlushMystery(s);
}

util::Status LoadDynamicBinary(persist::Decoder& dec, PackedState* s) {
  if (!dec.ReadDouble(&s->bias)) return dec.status();
  return util::Status::Ok();
}

// Bulk doubles pair with the per-element loop they replace: the writer's
// WriteDoubles and the reader's ReadDouble loop both extract as
// repeat{f64}.
void SaveSamplesBinary(persist::Encoder& enc, const std::vector<double>& v) {
  enc.WriteU64(v.size());
  enc.WriteDoubles(v.data(), v.size());
}

util::Status LoadSamplesBinary(persist::Decoder& dec, std::vector<double>* v) {
  uint64_t n = 0;
  if (!dec.ReadU64(&n)) return dec.status();
  for (uint64_t i = 0; i < n; ++i) {
    if (!dec.ReadDouble(&(*v)[i])) return dec.status();
  }
  return util::Status::Ok();
}

void SaveWeightsBinary(persist::Encoder& enc, const double* w, size_t n) {
  enc.WriteDoubles(w, n);
}

util::Status LoadWeightsBinary(persist::Decoder& dec, double* w, size_t n) {
  if (!dec.ReadDoubles(w, n)) return dec.status();
  return util::Status::Ok();
}

}  // namespace cdbtune::rl
