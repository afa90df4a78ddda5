// Tests for the framed wire codec (runtime/serialize.hpp): varint/zigzag
// primitives, frame round-trips under both codecs, and — the property the
// fault layer leans on — that every single-bit flip and every truncation of
// a frame is detected by the header/checksum validation rather than decoded
// into garbage. The ColorRecord codec every coloring exchange shares
// (runtime/fabric.hpp) rides the same round-trip and rejection checks.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "runtime/fabric.hpp"
#include "runtime/serialize.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace pmc {
namespace {

constexpr WireCodec kBothCodecs[] = {WireCodec::kFixed, WireCodec::kCompact};

// ---- primitives -------------------------------------------------------------

TEST(Zigzag, RoundTripsExtremes) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
        std::int64_t{INT64_MAX}, std::int64_t{INT64_MIN},
        std::int64_t{kNoVertex}}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
  // Small magnitudes map to small codes (the property delta encoding needs).
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
}

TEST(VarintWriter, UvarintBoundaries) {
  // One byte up to 127, two up to 16383, ten for the full 64-bit range.
  const struct {
    std::uint64_t value;
    std::size_t bytes;
  } cases[] = {{0, 1},       {127, 1},        {128, 2},
               {16383, 2},   {16384, 3},      {UINT64_MAX, 10}};
  for (const auto& c : cases) {
    VarintWriter w;
    w.put_uvarint(c.value);
    EXPECT_EQ(w.size(), c.bytes) << c.value;
  }
}

TEST(WireCodecNames, ParseAndPrint) {
  EXPECT_EQ(parse_wire_codec("fixed"), WireCodec::kFixed);
  EXPECT_EQ(parse_wire_codec("compact"), WireCodec::kCompact);
  EXPECT_STREQ(to_string(WireCodec::kFixed), "fixed");
  EXPECT_STREQ(to_string(WireCodec::kCompact), "compact");
  EXPECT_THROW((void)parse_wire_codec("gzip"), Error);
}

// ---- frame round-trips ------------------------------------------------------

/// One synthetic record: mirrors the algorithm payloads (a type byte, an
/// absolute id, a chain-relative id, a color).
struct Record {
  std::uint8_t type;
  VertexId a;
  VertexId b;
  Color c;
};

std::vector<Record> random_records(Rng& rng, int count) {
  std::vector<Record> records;
  records.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Record r;
    r.type = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    // Mix clustered ids (the common case the delta chain exploits), far
    // jumps, and sentinels.
    switch (rng.uniform_int(0, 3)) {
      case 0: r.a = rng.uniform_int(0, 100); break;
      case 1: r.a = rng.uniform_int(1 << 20, (1 << 20) + 50); break;
      case 2: r.a = rng.uniform_int(0, INT32_MAX); break;
      default: r.a = kNoVertex; break;
    }
    r.b = rng.uniform_int(0, 2) == 0 ? kNoVertex
                                     : r.a + rng.uniform_int(-40, 40);
    r.c = rng.uniform_int(0, 4) == 0 ? kNoColor
                                     : static_cast<Color>(
                                           rng.uniform_int(0, 4000));
    records.push_back(r);
  }
  return records;
}

std::vector<std::byte> encode_records(const std::vector<Record>& records,
                                      WireCodec codec) {
  FrameWriter w(codec);
  for (const Record& r : records) {
    w.begin_record();
    w.put_u8(r.type);
    w.put_id(r.a);
    w.put_id_rel(r.b);
    w.put_color(r.c);
  }
  return w.take();
}

void expect_decodes_back(const std::vector<std::byte>& frame,
                         const std::vector<Record>& records, WireCodec codec) {
  FrameReader reader(frame);
  ASSERT_TRUE(reader.valid()) << reader.error();
  EXPECT_EQ(reader.codec(), codec);
  ASSERT_EQ(reader.records(), static_cast<std::int64_t>(records.size()));
  for (const Record& r : records) {
    EXPECT_EQ(reader.read_u8(), r.type);
    EXPECT_EQ(reader.read_id(), r.a);
    EXPECT_EQ(reader.read_id_rel(), r.b);
    EXPECT_EQ(reader.read_color(), r.c);
  }
  EXPECT_TRUE(reader.done());
}

TEST(FrameCodec, RandomBatchesRoundTripUnderBothCodecs) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const auto records =
        random_records(rng, static_cast<int>(rng.uniform_int(1, 60)));
    for (const WireCodec codec : kBothCodecs) {
      const auto frame = encode_records(records, codec);
      expect_decodes_back(frame, records, codec);
    }
  }
}

TEST(FrameCodec, EncodingIsDeterministic) {
  Rng rng(7);
  const auto records = random_records(rng, 40);
  for (const WireCodec codec : kBothCodecs) {
    EXPECT_EQ(encode_records(records, codec), encode_records(records, codec));
  }
}

TEST(FrameCodec, EmptyWriterProducesNoBytes) {
  for (const WireCodec codec : kBothCodecs) {
    FrameWriter w(codec);
    EXPECT_TRUE(w.empty());
    EXPECT_EQ(w.take(), std::vector<std::byte>{});
  }
}

TEST(FrameCodec, TakeResetsWriterAndDeltaChain) {
  FrameWriter w(WireCodec::kCompact);
  w.begin_record();
  w.put_id(1 << 20);
  const auto first = w.take();
  EXPECT_TRUE(w.empty());
  // A fresh record after take() must encode against a reset chain, i.e.
  // produce the same bytes as a brand-new writer.
  w.begin_record();
  w.put_id(1 << 20);
  EXPECT_EQ(w.take(), first);
}

TEST(FrameCodec, CompactBeatsFixedOnClusteredIds) {
  // A batch shaped like real boundary traffic: ascending, clustered ids.
  FrameWriter compact(WireCodec::kCompact);
  FrameWriter fixed(WireCodec::kFixed);
  for (VertexId v = 1000; v < 1400; v += 2) {
    for (FrameWriter* w : {&compact, &fixed}) {
      w->begin_record();
      w->put_id(v);
      w->put_color(static_cast<Color>(v % 7));
    }
  }
  const auto cbytes = compact.take();
  const auto fbytes = fixed.take();
  EXPECT_LT(cbytes.size(), fbytes.size() / 2);
}

// ---- ColorRecord codec --------------------------------------------------------

/// Encodes (a, c) of every record as ColorRecords through put_color_record.
std::vector<std::byte> encode_color_records(const std::vector<Record>& records,
                                            WireCodec codec) {
  FrameWriter w(codec);
  for (const Record& r : records) put_color_record(w, r.a, r.c);
  return w.take();
}

std::vector<std::pair<VertexId, Color>> decode_color_records(
    const std::vector<std::byte>& frame) {
  std::vector<std::pair<VertexId, Color>> out;
  for_each_color_record(frame, [&](VertexId global, Color c) {
    out.emplace_back(global, c);
  });
  return out;
}

TEST(ColorRecordCodec, RoundTripsUnderBothCodecs) {
  Rng rng(31);
  for (int trial = 0; trial < 100; ++trial) {
    const auto records =
        random_records(rng, static_cast<int>(rng.uniform_int(1, 60)));
    std::vector<std::pair<VertexId, Color>> expected;
    for (const Record& r : records) expected.emplace_back(r.a, r.c);
    for (const WireCodec codec : kBothCodecs) {
      const auto frame = encode_color_records(records, codec);
      EXPECT_EQ(FrameReader(frame).records(),
                static_cast<std::int64_t>(records.size()));
      EXPECT_EQ(decode_color_records(frame), expected) << to_string(codec);
    }
  }
}

TEST(ColorRecordCodec, EmptyPayloadDecodesAsNoRecords) {
  // FIAC sends a (possibly empty) message to every rank; a writer with no
  // records takes to zero bytes, and zero bytes decode to zero records.
  for (const WireCodec codec : kBothCodecs) {
    const auto frame = encode_color_records({}, codec);
    EXPECT_TRUE(frame.empty());
    EXPECT_TRUE(decode_color_records(frame).empty());
  }
}

TEST(ColorRecordCodec, GarbledFrameThrows) {
  Rng rng(32);
  const auto records = random_records(rng, 12);
  for (const WireCodec codec : kBothCodecs) {
    auto frame = encode_color_records(records, codec);
    corrupt_one_bit(frame, 7);
    EXPECT_THROW((void)decode_color_records(frame), Error) << to_string(codec);
    const auto whole = encode_color_records(records, codec);
    const std::vector<std::byte> cut(whole.begin(), whole.end() - 1);
    EXPECT_THROW((void)decode_color_records(cut), Error) << to_string(codec);
  }
}

TEST(ColorRecordCodec, TrailingGarbageThrows) {
  // A well-formed, correctly checksummed frame whose payload holds one byte
  // more than its declared records: only the done() check can catch it.
  for (const WireCodec codec : kBothCodecs) {
    FrameWriter w(codec);
    put_color_record(w, 42, 3);
    w.put_u8(0x7F);
    const auto frame = w.take();
    ASSERT_TRUE(FrameReader(frame).valid());
    EXPECT_THROW((void)decode_color_records(frame), Error) << to_string(codec);
  }
}

// ---- corruption and truncation detection ------------------------------------

TEST(FrameCodec, EverySingleBitFlipIsDetected) {
  Rng rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    const auto records =
        random_records(rng, static_cast<int>(rng.uniform_int(1, 20)));
    for (const WireCodec codec : kBothCodecs) {
      const auto frame = encode_records(records, codec);
      for (std::size_t byte = 0; byte < frame.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
          auto garbled = frame;
          garbled[byte] ^= std::byte{1} << bit;
          const FrameReader reader(garbled);
          EXPECT_FALSE(reader.valid())
              << "flip of byte " << byte << " bit " << bit << " in a "
              << frame.size() << "-byte " << to_string(codec)
              << " frame went undetected";
        }
      }
    }
  }
}

TEST(FrameCodec, EveryTruncationIsDetected) {
  Rng rng(100);
  const auto records = random_records(rng, 25);
  for (const WireCodec codec : kBothCodecs) {
    const auto frame = encode_records(records, codec);
    for (std::size_t len = 1; len < frame.size(); ++len) {
      const std::vector<std::byte> cut(frame.begin(),
                                       frame.begin() + static_cast<long>(len));
      const FrameReader reader(cut);
      EXPECT_FALSE(reader.valid())
          << "truncation to " << len << " of " << frame.size()
          << " bytes went undetected (" << to_string(codec) << ")";
    }
  }
}

TEST(FrameCodec, CorruptOneBitIsDeterministicAndDetected) {
  Rng rng(101);
  const auto records = random_records(rng, 10);
  const auto frame = encode_records(records, WireCodec::kCompact);
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    auto a = frame;
    auto b = frame;
    corrupt_one_bit(a, seq);
    corrupt_one_bit(b, seq);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, frame);
    EXPECT_FALSE(FrameReader(a).valid());
  }
}

TEST(FrameCodec, ReaderErrorsNameTheProblem) {
  {
    const FrameReader reader(std::vector<std::byte>(3, std::byte{0}));
    EXPECT_FALSE(reader.valid());
    EXPECT_NE(std::string(reader.error()).find("short"), std::string::npos);
  }
  {
    // Valid frame, then break the version nibble.
    FrameWriter w(WireCodec::kCompact);
    w.begin_record();
    w.put_id(1);
    auto frame = w.take();
    frame[0] = std::byte{0xF2};
    const FrameReader reader(frame);
    EXPECT_FALSE(reader.valid());
    EXPECT_NE(std::string(reader.error()).find("version"), std::string::npos);
  }
}

/// Hand-built frame: `bytes` (tag, header varints, payload) followed by a
/// valid checksum over them.
std::vector<std::byte> sealed_frame(std::initializer_list<std::uint8_t> bytes) {
  std::vector<std::byte> frame;
  for (const std::uint8_t b : bytes) frame.push_back(std::byte{b});
  const std::uint32_t sum = fnv1a32(frame);
  for (std::size_t i = 0; i < kFrameChecksumBytes; ++i) {
    frame.push_back(static_cast<std::byte>(sum >> (8 * i)));
  }
  return frame;
}

constexpr std::uint8_t kCompactTag =
    (kWireFormatVersion << 4) | static_cast<std::uint8_t>(WireCodec::kCompact);

// A varint's tenth byte holds bit 63 only. Nine continuation bytes and then
// 0x7E would set bits above 2^64; decoding must reject it rather than drop
// those bits, which would read this id as 0 and this record count as 0.
TEST(FrameCodec, OverlongPayloadVarintThrows) {
  const auto frame = sealed_frame({kCompactTag, 1, 10, 0x80, 0x80, 0x80, 0x80,
                                   0x80, 0x80, 0x80, 0x80, 0x80, 0x7E});
  FrameReader reader(frame);
  ASSERT_TRUE(reader.valid()) << reader.error();
  EXPECT_THROW((void)reader.read_id(), Error);
}

TEST(FrameCodec, OverlongHeaderVarintIsInvalid) {
  const auto frame = sealed_frame({kCompactTag, 0x80, 0x80, 0x80, 0x80, 0x80,
                                   0x80, 0x80, 0x80, 0x80, 0x7E, 0});
  const FrameReader overlong(frame);
  EXPECT_FALSE(overlong.valid());
  EXPECT_NE(std::string(overlong.error()).find("overlong"), std::string::npos);
  // The largest legal tenth byte still decodes: UINT64_MAX as the record
  // count reaches the plausibility check instead.
  const auto max_count =
      sealed_frame({kCompactTag, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                    0xFF, 0xFF, 0x01, 0});
  const FrameReader reader(max_count);
  EXPECT_FALSE(reader.valid());
  EXPECT_NE(std::string(reader.error()).find("implausible"), std::string::npos);
}

// Decoding past the last record or through a mismatched reader is a
// programming error and must throw rather than return garbage.
TEST(FrameCodec, OverreadThrows) {
  FrameWriter w(WireCodec::kCompact);
  w.begin_record();
  w.put_id(5);
  const auto frame = w.take();
  FrameReader reader(frame);
  ASSERT_TRUE(reader.valid());
  EXPECT_EQ(reader.read_id(), 5);
  EXPECT_TRUE(reader.done());
  EXPECT_THROW((void)reader.read_id(), Error);
}

}  // namespace
}  // namespace pmc
