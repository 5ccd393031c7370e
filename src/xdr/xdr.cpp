#include "xdr/xdr.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.h"

namespace ninf::xdr {

namespace {
constexpr std::size_t kAlign = 4;

std::size_t padding(std::size_t n) { return (kAlign - n % kAlign) % kAlign; }

/// Encode host doubles as big-endian binary64 into `out` (8 bytes each).
void encodeDoublesBE(std::span<const double> in, std::uint8_t* out) {
  for (double d : in) {
    const std::uint64_t v = std::bit_cast<std::uint64_t>(d);
    out[0] = static_cast<std::uint8_t>(v >> 56);
    out[1] = static_cast<std::uint8_t>(v >> 48);
    out[2] = static_cast<std::uint8_t>(v >> 40);
    out[3] = static_cast<std::uint8_t>(v >> 32);
    out[4] = static_cast<std::uint8_t>(v >> 24);
    out[5] = static_cast<std::uint8_t>(v >> 16);
    out[6] = static_cast<std::uint8_t>(v >> 8);
    out[7] = static_cast<std::uint8_t>(v);
    out += 8;
  }
}

/// `data` holds big-endian binary64 bytes; convert to host doubles in
/// place.  Each element is copied out whole before its slot is
/// overwritten.  The explicit shifts compile to one byte-swapping load
/// per element; a byte-at-a-time inner loop here was 5x slower, and its
/// speed swung by up to 2x with where the linker placed it (gcc 12 -O2,
/// Xeon VM).
void decodeDoublesBEInPlace(std::span<double> data) {
  for (double& d : data) {
    std::uint8_t p[8];
    std::memcpy(p, &d, sizeof p);
    const std::uint64_t v =
        (std::uint64_t{p[0]} << 56) | (std::uint64_t{p[1]} << 48) |
        (std::uint64_t{p[2]} << 40) | (std::uint64_t{p[3]} << 32) |
        (std::uint64_t{p[4]} << 24) | (std::uint64_t{p[5]} << 16) |
        (std::uint64_t{p[6]} << 8) | std::uint64_t{p[7]};
    d = std::bit_cast<double>(v);
  }
}
}  // namespace

// ---------------------------------------------------------------- Encoder

void Encoder::pad() {
  buffer_.resize(buffer_.size() + padding(buffer_.size()), 0);
}

void Encoder::putU32(std::uint32_t v) {
  buffer_.push_back(static_cast<std::uint8_t>(v >> 24));
  buffer_.push_back(static_cast<std::uint8_t>(v >> 16));
  buffer_.push_back(static_cast<std::uint8_t>(v >> 8));
  buffer_.push_back(static_cast<std::uint8_t>(v));
}

void Encoder::putI32(std::int32_t v) {
  putU32(static_cast<std::uint32_t>(v));
}

void Encoder::putU64(std::uint64_t v) {
  putU32(static_cast<std::uint32_t>(v >> 32));
  putU32(static_cast<std::uint32_t>(v));
}

void Encoder::putI64(std::int64_t v) {
  putU64(static_cast<std::uint64_t>(v));
}

void Encoder::putBool(bool v) { putU32(v ? 1u : 0u); }

void Encoder::putFloat(float v) {
  static_assert(sizeof(float) == 4);
  putU32(std::bit_cast<std::uint32_t>(v));
}

void Encoder::putDouble(double v) {
  static_assert(sizeof(double) == 8);
  putU64(std::bit_cast<std::uint64_t>(v));
}

void Encoder::putOpaque(std::span<const std::uint8_t> bytes) {
  putU32(static_cast<std::uint32_t>(bytes.size()));
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  pad();
}

void Encoder::putString(const std::string& s) {
  putOpaque({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

void Encoder::putDoubleArray(std::span<const double> values) {
  putU32(static_cast<std::uint32_t>(values.size()));
  const std::size_t start = buffer_.size();
  buffer_.resize(start + values.size() * 8);
  encodeDoublesBE(values, buffer_.data() + start);
}

void Encoder::putDoubleArrayRef(std::span<const double> values) {
  putU32(static_cast<std::uint32_t>(values.size()));
  if (!values.empty()) {
    segments_.push_back({buffer_.size(), values});
  }
}

void Encoder::putI64Array(std::span<const std::int64_t> values) {
  putU32(static_cast<std::uint32_t>(values.size()));
  for (std::int64_t v : values) putI64(v);
}

void Encoder::putRaw(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::size_t Encoder::borrowedBytes() const {
  std::size_t total = 0;
  for (const Segment& seg : segments_) total += seg.borrowed.size() * 8;
  return total;
}

const std::vector<std::uint8_t>& Encoder::bytes() const {
  NINF_REQUIRE(!hasBorrowed(),
               "bytes() on an encoder with borrowed segments; use emitTo()");
  return buffer_;
}

std::vector<std::uint8_t> Encoder::take() {
  if (!hasBorrowed()) return std::move(buffer_);
  std::vector<std::uint8_t> out;
  appendTo(out);
  return out;
}

void Encoder::appendTo(std::vector<std::uint8_t>& out) const {
  out.reserve(out.size() + size());
  std::size_t owned_pos = 0;
  for (const Segment& seg : segments_) {
    out.insert(out.end(), buffer_.begin() + owned_pos,
               buffer_.begin() + seg.owned_end);
    owned_pos = seg.owned_end;
    const std::size_t start = out.size();
    out.resize(start + seg.borrowed.size() * 8);
    encodeDoublesBE(seg.borrowed, out.data() + start);
  }
  out.insert(out.end(), buffer_.begin() + owned_pos, buffer_.end());
}

void Encoder::emitTo(Sink& sink) const {
  constexpr std::size_t kScratchDoubles = kScratchBytes / 8;
  std::uint8_t scratch[kScratchBytes];
  std::size_t owned_pos = 0;
  for (const Segment& seg : segments_) {
    if (seg.owned_end > owned_pos) {
      sink.write({buffer_.data() + owned_pos, seg.owned_end - owned_pos});
      owned_pos = seg.owned_end;
    }
    std::span<const double> rest = seg.borrowed;
    while (!rest.empty()) {
      const auto chunk = rest.first(std::min(rest.size(), kScratchDoubles));
      encodeDoublesBE(chunk, scratch);
      sink.write({scratch, chunk.size() * 8});
      sink.flush();  // scratch is reused for the next chunk
      rest = rest.subspan(chunk.size());
    }
  }
  if (buffer_.size() > owned_pos) {
    sink.write({buffer_.data() + owned_pos, buffer_.size() - owned_pos});
  }
  sink.flush();
}

// ----------------------------------------------------------------- Source

void Source::need(std::size_t n) const {
  if (remainingBytes() < n) {
    throw ProtocolError("XDR underflow: need " + std::to_string(n) +
                        " bytes, have " + std::to_string(remainingBytes()));
  }
}

void Source::skipPad(std::size_t payload) {
  const std::size_t pad = padding(payload);
  if (pad == 0) return;
  need(pad);
  std::uint8_t buf[kAlign];
  readBytes({buf, pad});
  for (std::size_t i = 0; i < pad; ++i) {
    if (buf[i] != 0) {
      throw ProtocolError("XDR padding bytes must be zero");
    }
  }
}

std::uint32_t Source::getU32() {
  need(4);
  std::uint8_t b[4];
  readBytes(b);
  return (static_cast<std::uint32_t>(b[0]) << 24) |
         (static_cast<std::uint32_t>(b[1]) << 16) |
         (static_cast<std::uint32_t>(b[2]) << 8) |
         static_cast<std::uint32_t>(b[3]);
}

std::int32_t Source::getI32() { return static_cast<std::int32_t>(getU32()); }

std::uint64_t Source::getU64() {
  need(8);
  std::uint8_t b[8];
  readBytes(b);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | b[i];
  return v;
}

std::int64_t Source::getI64() { return static_cast<std::int64_t>(getU64()); }

bool Source::getBool() {
  const std::uint32_t v = getU32();
  if (v > 1) throw ProtocolError("XDR bool out of range");
  return v == 1;
}

float Source::getFloat() { return std::bit_cast<float>(getU32()); }

double Source::getDouble() { return std::bit_cast<double>(getU64()); }

std::vector<std::uint8_t> Source::getOpaque() {
  const std::uint32_t len = getU32();
  need(len + padding(len));
  std::vector<std::uint8_t> out(len);
  readBytes(out);
  skipPad(len);
  return out;
}

std::string Source::getString() {
  const auto bytes = getOpaque();
  return std::string(bytes.begin(), bytes.end());
}

std::vector<double> Source::getDoubleArray() {
  const std::uint32_t count = getU32();
  need(static_cast<std::size_t>(count) * 8);
  std::vector<double> out(count);
  getDoublesBody(out);
  return out;
}

void Source::getDoubleArrayInto(std::span<double> out) {
  const std::uint32_t count = getU32();
  if (count != out.size()) {
    throw ProtocolError("double array count mismatch: wire " +
                        std::to_string(count) + " vs expected " +
                        std::to_string(out.size()));
  }
  need(static_cast<std::size_t>(count) * 8);
  getDoublesBody(out);
}

void Source::getDoublesBody(std::span<double> out) {
  readBytes({reinterpret_cast<std::uint8_t*>(out.data()), out.size() * 8});
  decodeDoublesBEInPlace(out);
}

std::vector<std::int64_t> Source::getI64Array() {
  const std::uint32_t count = getU32();
  need(static_cast<std::size_t>(count) * 8);
  std::vector<std::int64_t> out(count);
  readBytes({reinterpret_cast<std::uint8_t*>(out.data()), out.size() * 8});
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint8_t* p =
        reinterpret_cast<const std::uint8_t*>(out.data()) + i * 8;
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) v = (v << 8) | p[b];
    out[i] = static_cast<std::int64_t>(v);
  }
  return out;
}

void Source::getRaw(std::span<std::uint8_t> out) {
  need(out.size());
  readBytes(out);
}

void Source::skip(std::size_t n) {
  need(n);
  std::uint8_t buf[4096];
  while (n > 0) {
    const std::size_t chunk = std::min(n, sizeof(buf));
    readBytes({buf, chunk});
    n -= chunk;
  }
}

// ---------------------------------------------------------------- Decoder

void Decoder::readBytes(std::span<std::uint8_t> out) {
  if (out.size() > remainingBytes()) {
    throw ProtocolError("XDR underflow: need " + std::to_string(out.size()) +
                        " bytes, have " + std::to_string(remainingBytes()));
  }
  // An empty span (an empty string or opaque) may carry a null pointer,
  // which memcpy must never see, even for a zero-byte copy.
  if (out.empty()) return;
  std::memcpy(out.data(), data_.data() + pos_, out.size());
  pos_ += out.size();
}

}  // namespace ninf::xdr
