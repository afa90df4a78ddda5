// Byte-level message serialization and the versioned wire codec.
//
// Algorithm-level records (REQUEST/SUCCEEDED/FAILED for matching, color
// updates for coloring) travel inside *frames*: a small self-describing
// envelope with a version/codec tag, a record count, the payload length and
// an FNV-1a-32 checksum trailer. Two payload codecs share the frame:
//
//   * WireCodec::kFixed   — the legacy fixed-width native encoding (u8 tag,
//     8-byte VertexId, 4-byte Color), byte-identical to the pre-codec
//     payloads; kept as the ablation baseline.
//   * WireCodec::kCompact — LEB128 varints with per-frame delta encoding of
//     vertex ids (records are near-sorted by construction, so consecutive
//     ids are close and deltas fit in one or two bytes) and zigzag-encoded
//     signed values. The default: the alpha-beta cost model charges on
//     encoded bytes, so compaction directly reduces modelled time.
//
// Frame layout (all multi-byte header fields are LEB128; the checksum is a
// 4-byte little-endian trailer):
//
//   +--------+----------------+----------------+=========+-----------+
//   | tag    | record count   | payload length | payload | FNV-1a-32 |
//   | 1 byte | uvarint        | uvarint        | N bytes | 4 bytes   |
//   +--------+----------------+----------------+=========+-----------+
//     tag = (version << 4) | codec
//
// The checksum covers everything before it (tag through payload). A single
// corrupted bit is detected with certainty: FNV-1a's per-byte step
// h' = (h ^ b) * prime is injective in h and in b, so two byte streams that
// first differ at some position keep differing states forever; truncation
// is caught by the explicit payload length. A frame that fails validation
// is reported through FrameReader::valid() — never a crash — so the
// engines' retry/repair machinery can treat it as a detected corruption.
//
// Each record kind (ColorRecord, the matching protocol's records, ...) is a
// struct with one field list, kFields; FrameWriter::put writes it and
// for_each_record reads it, so an encoder and a decoder cannot disagree on
// a layout. The fixed-width encoding is native-endian: messages never leave
// the process — the runtime is a simulation.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "support/error.hpp"
#include "support/types.hpp"

namespace pmc {

// ---- wire codec -----------------------------------------------------------

/// Payload encoding carried in the frame tag.
enum class WireCodec : std::uint8_t {
  kFixed = 1,    ///< Legacy fixed-width records (ablation baseline).
  kCompact = 2,  ///< LEB128 varint + per-frame delta encoding (default).
};

[[nodiscard]] const char* to_string(WireCodec codec) noexcept;

/// Parses "fixed" / "compact" (the mtx_tool --codec values).
[[nodiscard]] WireCodec parse_wire_codec(const std::string& name);

inline constexpr std::uint8_t kWireFormatVersion = 1;
inline constexpr std::size_t kFrameChecksumBytes = 4;

/// FNV-1a-32 over a byte span. Guarantees detection of any single corrupted
/// byte (the per-byte step is injective; see the header comment).
[[nodiscard]] std::uint32_t fnv1a32(std::span<const std::byte> bytes) noexcept;

/// ZigZag maps signed to unsigned so small-magnitude values (of either
/// sign — deltas go both ways) get short varints.
[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t u) noexcept {
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

/// Appends LEB128 varints (and raw bytes) to a growing byte buffer — the
/// low-level encoder under FrameWriter, exposed for tests.
class VarintWriter {
 public:
  void put_u8(std::uint8_t b) {
    bytes_.push_back(static_cast<std::byte>(b));
  }

  void put_uvarint(std::uint64_t v) {
    while (v >= 0x80) {
      bytes_.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
      v >>= 7;
    }
    bytes_.push_back(static_cast<std::byte>(v));
  }

  void put_svarint(std::int64_t v) { put_uvarint(zigzag_encode(v)); }

  void put_bytes(std::span<const std::byte> bytes) {
    bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  }

  void reserve(std::size_t bytes) { bytes_.reserve(bytes); }

  template <typename T>
  void put_raw(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "VarintWriter::put_raw needs a trivially copyable type");
    const auto old = bytes_.size();
    bytes_.resize(old + sizeof(T));
    std::memcpy(bytes_.data() + old, &value, sizeof(T));
  }

  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return bytes_.empty(); }
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return bytes_;
  }

  [[nodiscard]] std::vector<std::byte> take() noexcept {
    std::vector<std::byte> out = std::move(bytes_);
    bytes_.clear();
    return out;
  }

  void clear() noexcept { bytes_.clear(); }

 private:
  std::vector<std::byte> bytes_;
};

/// How one field of a record kind travels. A record kind is a struct whose
/// `static constexpr std::tuple kFields` lists these in wire order. Under
/// kCompact an IdField is a varint delta on the frame's id chain and
/// advances it; a RelIdField is a varint relative to the last IdField and
/// leaves the chain alone (mates and request targets are graph neighbors of
/// the record's primary id, so the difference is small); a ColorField is a
/// zigzag varint. Under kFixed they are 8, 8 and 4 raw bytes.
template <typename R>
struct IdField {
  VertexId R::*member;
};
template <typename R>
struct RelIdField {
  VertexId R::*member;
};
template <typename R>
struct ColorField {
  Color R::*member;
};

/// A kind with a `static constexpr std::uint8_t kTag` writes that byte
/// before its fields, so several kinds can share a frame.
template <typename R>
concept TaggedRecord = requires {
  { R::kTag } -> std::convertible_to<std::uint8_t>;
};

/// Encodes one outgoing message: records appended by put(), sealed into a
/// checksummed frame by take(). Under kFixed the payload bytes are
/// identical to the legacy fixed-width encoding. take() of a writer with
/// no records returns an empty vector — empty messages (the FIAC mode's
/// non-neighbor sends) stay zero-byte on the wire.
class FrameWriter {
 public:
  explicit FrameWriter(WireCodec codec = WireCodec::kCompact) noexcept
      : codec_(codec) {}

  [[nodiscard]] WireCodec codec() const noexcept { return codec_; }

  /// Appends one record: its tag byte if R has one, then R::kFields.
  template <typename R>
  void put(const R& record) {
    ++records_;
    if constexpr (TaggedRecord<R>) payload_.put_u8(R::kTag);
    std::apply([&](auto... field) { (put_field(record, field), ...); },
               R::kFields);
  }

  [[nodiscard]] std::int64_t records() const noexcept { return records_; }
  [[nodiscard]] bool empty() const noexcept { return records_ == 0; }
  [[nodiscard]] std::size_t payload_size() const noexcept {
    return payload_.size();
  }

  /// Seals the staged records into one frame and resets the writer (record
  /// count, payload, delta chain). No records staged -> empty vector.
  [[nodiscard]] std::vector<std::byte> take();

 private:
  template <typename R>
  void put_field(const R& record, IdField<R> field) {
    const VertexId id = record.*field.member;
    if (codec_ == WireCodec::kFixed) {
      payload_.put_raw(id);
      return;
    }
    payload_.put_svarint(id - last_id_);
    last_id_ = id;
  }
  template <typename R>
  void put_field(const R& record, RelIdField<R> field) {
    const VertexId id = record.*field.member;
    if (codec_ == WireCodec::kFixed) {
      payload_.put_raw(id);
      return;
    }
    payload_.put_svarint(id - last_id_);
  }
  template <typename R>
  void put_field(const R& record, ColorField<R> field) {
    const Color c = record.*field.member;
    if (codec_ == WireCodec::kFixed) {
      payload_.put_raw(c);
      return;
    }
    payload_.put_svarint(c);
  }

  WireCodec codec_;
  VarintWriter payload_;
  std::int64_t records_ = 0;
  VertexId last_id_ = 0;
};

/// Parses and validates one frame. Construction never throws on garbage
/// input: header, length and checksum problems are reported through
/// valid()/error() so the engines can route a garbled frame into recovery
/// instead of dying. Records are decoded only by for_each_record.
class FrameReader {
 public:
  explicit FrameReader(std::span<const std::byte> frame) noexcept;

  [[nodiscard]] bool valid() const noexcept { return error_ == nullptr; }
  /// Human-readable reason when !valid(); nullptr otherwise.
  [[nodiscard]] const char* error() const noexcept { return error_; }

  [[nodiscard]] WireCodec codec() const noexcept { return codec_; }
  [[nodiscard]] std::int64_t records() const noexcept { return records_; }

 private:
  template <typename... R, typename Fn>
  friend void for_each_record(std::span<const std::byte> payload, Fn&& fn);

  template <typename R>
  [[nodiscard]] R read_record() {
    R record;
    std::apply([&](auto... field) { (read_field(record, field), ...); },
               R::kFields);
    return record;
  }
  template <typename R>
  void read_field(R& record, IdField<R> field) {
    record.*field.member = read_id();
  }
  template <typename R>
  void read_field(R& record, RelIdField<R> field) {
    record.*field.member = read_id_rel();
  }
  template <typename R>
  void read_field(R& record, ColorField<R> field) {
    record.*field.member = read_color();
  }

  [[nodiscard]] std::uint8_t read_u8() { return read_raw<std::uint8_t>(); }
  /// Next vertex id on the frame's delta chain.
  [[nodiscard]] VertexId read_id();
  /// Vertex id relative to the last read_id (does not advance the chain).
  [[nodiscard]] VertexId read_id_rel();
  [[nodiscard]] Color read_color();
  /// The id `delta` past the chain's last id; pmc::Error if it overflows.
  [[nodiscard]] VertexId chained(std::int64_t delta) const;
  /// True once the payload cursor is exhausted.
  [[nodiscard]] bool done() const noexcept { return pos_ == payload_.size(); }

  void parse(std::span<const std::byte> frame) noexcept;
  [[nodiscard]] std::uint64_t read_uvarint();
  [[nodiscard]] std::int64_t read_svarint() {
    return zigzag_decode(read_uvarint());
  }
  template <typename T>
  [[nodiscard]] T read_raw() {
    PMC_CHECK(pos_ + sizeof(T) <= payload_.size(),
              "frame payload underflow: need "
                  << sizeof(T) << " bytes at offset " << pos_ << " of "
                  << payload_.size());
    T value;
    std::memcpy(&value, payload_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::span<const std::byte> payload_;
  std::size_t pos_ = 0;
  WireCodec codec_ = WireCodec::kFixed;
  std::int64_t records_ = 0;
  VertexId last_id_ = 0;
  const char* error_ = nullptr;
};

/// The one decode loop: calls fn(const R&) for every record of a frame, in
/// order. With one kind every record is an R; with several, each record's
/// tag byte picks its kind, and an unknown tag raises pmc::Error naming it.
/// An empty payload (FIAC's zero-byte messages) holds no records. An
/// invalid frame, a field that does not decode, or bytes left over after
/// the last record raise pmc::Error.
template <typename... R, typename Fn>
void for_each_record(std::span<const std::byte> payload, Fn&& fn) {
  static_assert(sizeof...(R) == 1 || (TaggedRecord<R> && ...),
                "several kinds can share a frame only through their tags");
  if (payload.empty()) return;
  FrameReader reader(payload);
  PMC_CHECK(reader.valid(), "bad frame: " << reader.error());
  for (std::int64_t i = 0; i < reader.records(); ++i) {
    if constexpr ((TaggedRecord<R> && ...)) {
      // The kind whose tag matches decodes the record and hands it to fn.
      const std::uint8_t tag = reader.read_u8();
      const bool known =
          ((tag == R::kTag && (fn(reader.template read_record<R>()), true)) ||
           ...);
      PMC_CHECK(known, "unknown record tag " << static_cast<int>(tag));
    } else {
      fn(reader.template read_record<R...>());
    }
  }
  PMC_CHECK(reader.done(), "trailing bytes after the last record");
}

/// Flips one deterministically chosen bit of a non-empty buffer — the
/// engines' physical model of an in-flight corruption (the fabric issues
/// the verdict; the engine garbles the bytes and lets the checksum catch
/// it honestly).
void corrupt_one_bit(std::span<std::byte> bytes, std::uint64_t seed);

}  // namespace pmc
