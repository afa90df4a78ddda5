#include "runtime/serialize.hpp"

#include <cstdint>
#include <cstring>
#include <limits>

#include "support/rng.hpp"

namespace pmc {

namespace {

constexpr std::uint32_t kFnvOffsetBasis = 0x811C9DC5u;
constexpr std::uint32_t kFnvPrime = 0x01000193u;

/// Longest LEB128 encoding of a 64-bit value.
constexpr std::size_t kMaxVarintBytes = 10;

/// Length of v's LEB128 encoding.
constexpr std::size_t uvarint_size(std::uint64_t v) noexcept {
  std::size_t bytes = 1;
  for (; v >= 0x80; v >>= 7) ++bytes;
  return bytes;
}

enum class VarintStatus : std::uint8_t { kOk, kTruncated, kOverlong };

/// Decodes the LEB128 varint at bytes[pos], advancing pos. A tenth byte
/// carries bit 63 alone, so any value above 1 there — a continuation or
/// bits past 2^64 — is overlong rather than silently truncated.
VarintStatus decode_uvarint(std::span<const std::byte> bytes,
                            std::size_t& pos, std::uint64_t& out) noexcept {
  out = 0;
  for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
    if (pos >= bytes.size()) return VarintStatus::kTruncated;
    const auto b = static_cast<std::uint8_t>(bytes[pos++]);
    if (i + 1 == kMaxVarintBytes && b > 1) return VarintStatus::kOverlong;
    out |= static_cast<std::uint64_t>(b & 0x7F) << (7 * i);
    if ((b & 0x80) == 0) return VarintStatus::kOk;
  }
  return VarintStatus::kOverlong;  // unreachable: the tenth byte returned
}

}  // namespace

const char* to_string(WireCodec codec) noexcept {
  switch (codec) {
    case WireCodec::kFixed:
      return "fixed";
    case WireCodec::kCompact:
      return "compact";
  }
  return "?";
}

WireCodec parse_wire_codec(const std::string& name) {
  if (name == "fixed") return WireCodec::kFixed;
  if (name == "compact") return WireCodec::kCompact;
  PMC_FAIL("unknown wire codec '" << name << "' (expected fixed|compact)");
}

std::uint32_t fnv1a32(std::span<const std::byte> bytes) noexcept {
  std::uint32_t h = kFnvOffsetBasis;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint32_t>(static_cast<std::uint8_t>(b));
    h *= kFnvPrime;
  }
  return h;
}

std::vector<std::byte> FrameWriter::take() {
  last_id_ = 0;
  if (records_ == 0) {
    payload_.clear();
    return {};
  }
  const auto records = static_cast<std::uint64_t>(records_);
  const std::size_t payload = payload_.size();
  VarintWriter frame;
  frame.reserve(1 + uvarint_size(records) + uvarint_size(payload) + payload +
                kFrameChecksumBytes);
  frame.put_u8(static_cast<std::uint8_t>(
      (kWireFormatVersion << 4) | static_cast<std::uint8_t>(codec_)));
  frame.put_uvarint(records);
  frame.put_uvarint(payload);
  frame.put_bytes(payload_.bytes());
  const std::uint32_t sum = fnv1a32(frame.bytes());
  frame.put_raw(sum);
  payload_.clear();
  records_ = 0;
  return frame.take();
}

FrameReader::FrameReader(std::span<const std::byte> frame) noexcept {
  parse(frame);
}

void FrameReader::parse(std::span<const std::byte> frame) noexcept {
  // Manual bounds-checked parse: a garbled frame must surface as !valid(),
  // never as an assertion or out-of-range read.
  const std::size_t n = frame.size();
  std::size_t pos = 0;

  if (n < 1 + 1 + 1 + kFrameChecksumBytes) {
    error_ = "frame too short";
    return;
  }
  const auto tag = static_cast<std::uint8_t>(frame[pos++]);
  if ((tag >> 4) != kWireFormatVersion) {
    error_ = "unknown wire format version";
    return;
  }
  const auto codec = static_cast<WireCodec>(tag & 0x0F);
  if (codec != WireCodec::kFixed && codec != WireCodec::kCompact) {
    error_ = "unknown codec tag";
    return;
  }
  std::uint64_t records = 0;
  std::uint64_t payload_len = 0;
  VarintStatus status = decode_uvarint(frame, pos, records);
  if (status == VarintStatus::kOk) {
    status = decode_uvarint(frame, pos, payload_len);
  }
  if (status != VarintStatus::kOk) {
    error_ = status == VarintStatus::kTruncated
                 ? "truncated frame header"
                 : "overlong varint in frame header";
    return;
  }
  if (records > static_cast<std::uint64_t>(INT64_MAX)) {
    error_ = "implausible record count";
    return;
  }
  if (pos + kFrameChecksumBytes > n ||
      payload_len != n - pos - kFrameChecksumBytes) {
    error_ = "payload length mismatch";
    return;
  }
  std::uint32_t declared = 0;
  std::memcpy(&declared, frame.data() + (n - kFrameChecksumBytes),
              kFrameChecksumBytes);
  if (fnv1a32(frame.subspan(0, n - kFrameChecksumBytes)) != declared) {
    error_ = "checksum mismatch";
    return;
  }
  codec_ = codec;
  records_ = static_cast<std::int64_t>(records);
  payload_ = frame.subspan(pos, payload_len);
}

std::uint64_t FrameReader::read_uvarint() {
  std::uint64_t out = 0;
  const VarintStatus status = decode_uvarint(payload_, pos_, out);
  PMC_CHECK(status != VarintStatus::kTruncated,
            "frame payload underflow reading varint at offset " << pos_);
  PMC_CHECK(status != VarintStatus::kOverlong,
            "overlong varint in frame payload");
  return out;
}

VertexId FrameReader::chained(std::int64_t delta) const {
  VertexId id = 0;
  PMC_CHECK(!__builtin_add_overflow(last_id_, delta, &id),
            "vertex id delta " << delta << " overflows the chain at "
                               << last_id_);
  return id;
}

VertexId FrameReader::read_id() {
  if (codec_ == WireCodec::kFixed) return read_raw<VertexId>();
  last_id_ = chained(read_svarint());
  return last_id_;
}

VertexId FrameReader::read_id_rel() {
  if (codec_ == WireCodec::kFixed) return read_raw<VertexId>();
  return chained(read_svarint());
}

Color FrameReader::read_color() {
  if (codec_ == WireCodec::kFixed) return read_raw<Color>();
  const std::int64_t c = read_svarint();
  PMC_CHECK(c >= std::numeric_limits<Color>::min() &&
                c <= std::numeric_limits<Color>::max(),
            "color " << c << " out of range");
  return static_cast<Color>(c);
}

void corrupt_one_bit(std::span<std::byte> bytes, std::uint64_t seed) {
  PMC_REQUIRE(!bytes.empty(), "cannot corrupt an empty buffer");
  const std::uint64_t h = splitmix64(seed ^ 0xC0DEC0DEC0DEC0DEULL);
  const std::size_t bit = static_cast<std::size_t>(h % (bytes.size() * 8));
  bytes[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
}

}  // namespace pmc
