// Tests for the framed wire codec (runtime/serialize.hpp): varint/zigzag
// primitives, frame round-trips under both codecs, the golden byte layout
// of every record kind, the one decode loop's rejections, and — the
// property the fault layer leans on — that every single-bit flip and every
// truncation of a frame is detected by the header/checksum validation
// rather than decoded into garbage.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "matching/match_process.hpp"
#include "matching/parallel_verify.hpp"
#include "runtime/fabric.hpp"
#include "runtime/serialize.hpp"
#include "service/incremental_match.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace pmc {
namespace {

constexpr WireCodec kBothCodecs[] = {WireCodec::kFixed, WireCodec::kCompact};

// ---- the typed API is the only way on and off the wire ----------------------

// Records enter a frame only through FrameWriter::put and leave it only
// through for_each_record, so both walk the same field list.
template <typename W>
concept RawFieldWriter =
    requires(W& w) { w.begin_record(); } ||
    requires(W& w) { w.put_u8(std::uint8_t{1}); } ||
    requires(W& w) { w.put_id(VertexId{1}); } ||
    requires(W& w) { w.put_id_rel(VertexId{1}); } ||
    requires(W& w) { w.put_color(Color{1}); } ||
    requires(W& w, const ColorRecord& r) {
      w.put_field(r, IdField<ColorRecord>{&ColorRecord::id});
    };
template <typename R>
concept RawFieldReader =
    requires(R& r) { r.read_u8(); } || requires(R& r) { r.read_id(); } ||
    requires(R& r) { r.read_id_rel(); } ||
    requires(R& r) { r.read_color(); } || requires(R& r) { r.done(); } ||
    requires(R& r) { r.template read_record<ColorRecord>(); };
struct PublicCursor {
  void put_id(VertexId);
  VertexId read_id();
};
static_assert(RawFieldWriter<PublicCursor> && RawFieldReader<PublicCursor>,
              "the concepts must see a public raw accessor");
static_assert(!RawFieldWriter<FrameWriter>);
static_assert(!RawFieldReader<FrameReader>);

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

/// One synthetic record kind using every field kind: an absolute id, a
/// chain-relative id and a color.
struct Record {
  VertexId a = 0;
  VertexId b = 0;
  Color c = 0;
  static constexpr std::tuple kFields{IdField{&Record::a},
                                      RelIdField{&Record::b},
                                      ColorField{&Record::c}};
};

std::vector<Record> random_records(Rng& rng, int count) {
  std::vector<Record> records;
  records.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Record r;
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

template <typename R>
std::vector<std::byte> encode(const std::vector<R>& records, WireCodec codec) {
  FrameWriter w(codec);
  for (const R& r : records) w.put(r);
  return w.take();
}

template <typename R>
std::vector<R> decode(std::span<const std::byte> frame) {
  std::vector<R> out;
  for_each_record<R>(frame, [&](const R& r) { out.push_back(r); });
  return out;
}

template <typename R>
void expect_same_records(const std::vector<R>& got,
                         const std::vector<R>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(test::same_record(got[i], want[i])) << "record " << i;
  }
}

TEST(FrameCodec, RandomBatchesRoundTripUnderBothCodecs) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const auto records =
        random_records(rng, static_cast<int>(rng.uniform_int(1, 60)));
    for (const WireCodec codec : kBothCodecs) {
      const auto frame = encode(records, codec);
      const FrameReader reader(frame);
      ASSERT_TRUE(reader.valid()) << reader.error();
      EXPECT_EQ(reader.codec(), codec);
      EXPECT_EQ(reader.records(), static_cast<std::int64_t>(records.size()));
      expect_same_records(decode<Record>(frame), records);
    }
  }
}

TEST(FrameCodec, EncodingIsDeterministic) {
  Rng rng(7);
  const auto records = random_records(rng, 40);
  for (const WireCodec codec : kBothCodecs) {
    EXPECT_EQ(encode(records, codec), encode(records, codec));
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
  w.put(test::IdRecord{1 << 20});
  const auto first = w.take();
  EXPECT_TRUE(w.empty());
  // A fresh record after take() must encode against a reset chain, i.e.
  // produce the same bytes as a brand-new writer.
  w.put(test::IdRecord{1 << 20});
  EXPECT_EQ(w.take(), first);
}

TEST(FrameCodec, CompactBeatsFixedOnClusteredIds) {
  // A batch shaped like real boundary traffic: ascending, clustered ids.
  FrameWriter compact(WireCodec::kCompact);
  FrameWriter fixed(WireCodec::kFixed);
  for (VertexId v = 1000; v < 1400; v += 2) {
    for (FrameWriter* w : {&compact, &fixed}) {
      w->put(ColorRecord{v, static_cast<Color>(v % 7)});
    }
  }
  const auto cbytes = compact.take();
  const auto fbytes = fixed.take();
  EXPECT_LT(cbytes.size(), fbytes.size() / 2);
}

// ---- golden frames ----------------------------------------------------------
//
// The byte layout of every record kind under both codecs. The literals were
// recorded with the field-by-field encoders that predate kFields, not
// generated from it, so a changed field list, field kind or tag fails here.
// Each set holds a kNoVertex and a negative delta; ColorRecord a kNoColor.

template <typename R>
void expect_golden(const std::vector<R>& records, WireCodec codec,
                   std::initializer_list<std::uint8_t> golden) {
  std::vector<std::byte> bytes;
  for (const std::uint8_t b : golden) bytes.push_back(std::byte{b});
  EXPECT_EQ(encode(records, codec), bytes) << to_string(codec);
  expect_same_records(decode<R>(bytes), records);
}

TEST(GoldenFrames, ColorRecord) {
  const std::vector<ColorRecord> records{
      {1000, 3}, {998, kNoColor}, {kNoVertex, 17}};
  expect_golden(records, WireCodec::kFixed,
                {0x11, 0x03, 0x24, 0xE8, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
                 0x00, 0x03, 0x00, 0x00, 0x00, 0xE6, 0x03, 0x00, 0x00, 0x00,
                 0x00, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x11, 0x00, 0x00, 0x00, 0xBB,
                 0x6D, 0x2E, 0xE2});
  expect_golden(records, WireCodec::kCompact,
                {0x12, 0x03, 0x08, 0xD0, 0x0F, 0x06, 0x03, 0x01, 0xCD, 0x0F,
                 0x22, 0xFF, 0xDB, 0x03, 0x2C});
}

TEST(GoldenFrames, MateRecord) {
  const std::vector<MateRecord> records{
      {42, 43}, {40, kNoVertex}, {5000000000, 4999999999}};
  expect_golden(records, WireCodec::kFixed,
                {0x11, 0x03, 0x30, 0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                 0x00, 0x2B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x28,
                 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xFF, 0xFF, 0xFF,
                 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0xF2, 0x05, 0x2A, 0x01,
                 0x00, 0x00, 0x00, 0xFF, 0xF1, 0x05, 0x2A, 0x01, 0x00, 0x00,
                 0x00, 0x58, 0x81, 0xF9, 0xA5});
  expect_golden(records, WireCodec::kCompact,
                {0x12, 0x03, 0x0A, 0x54, 0x02, 0x03, 0x51, 0xB0, 0xC7, 0xAF,
                 0xA0, 0x25, 0x01, 0x9A, 0xCE, 0xC3, 0xE5});
}

TEST(GoldenFrames, Request) {
  const std::vector<MatchProcess::Request> records{
      {7, 12}, {3, 1}, {kNoVertex, 4}};
  expect_golden(records, WireCodec::kFixed,
                {0x11, 0x03, 0x33, 0x01, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00,
                 0x00, 0x00, 0x0C, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                 0x01, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
                 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0xFF, 0xFF,
                 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x04, 0x00, 0x00, 0x00,
                 0x00, 0x00, 0x00, 0x00, 0x4A, 0x69, 0x48, 0xDC});
  expect_golden(records, WireCodec::kCompact,
                {0x12, 0x03, 0x09, 0x01, 0x0E, 0x0A, 0x01, 0x07, 0x03, 0x01,
                 0x07, 0x0A, 0x79, 0x81, 0xE0, 0x7C});
}

TEST(GoldenFrames, Succeeded) {
  const std::vector<MatchProcess::Succeeded> records{
      {9, 8}, {2, 1000000}, {kNoVertex, kNoVertex}};
  expect_golden(records, WireCodec::kFixed,
                {0x11, 0x03, 0x33, 0x02, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00,
                 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                 0x02, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40,
                 0x42, 0x0F, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0xFF, 0xFF,
                 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                 0xFF, 0xFF, 0xFF, 0xFF, 0x94, 0x46, 0xB4, 0x0B});
  expect_golden(records, WireCodec::kCompact,
                {0x12, 0x03, 0x0B, 0x02, 0x12, 0x01, 0x02, 0x0D, 0xFC, 0x88,
                 0x7A, 0x02, 0x05, 0x00, 0xEA, 0xA1, 0xB7, 0x58});
}

TEST(GoldenFrames, Failed) {
  const std::vector<MatchProcess::Failed> records{
      {100}, {97}, {kNoVertex}};
  expect_golden(records, WireCodec::kFixed,
                {0x11, 0x03, 0x1B, 0x03, 0x64, 0x00, 0x00, 0x00, 0x00, 0x00,
                 0x00, 0x00, 0x03, 0x61, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                 0x00, 0x03, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                 0x12, 0x55, 0x70, 0x1D});
  expect_golden(records, WireCodec::kCompact,
                {0x12, 0x03, 0x08, 0x03, 0xC8, 0x01, 0x03, 0x05, 0x03, 0xC3,
                 0x01, 0x4D, 0x37, 0x0B, 0x45});
}

TEST(GoldenFrames, Invalidate) {
  const std::vector<IncrementalMatchProcess::Invalidate> records{
      {12}, {5}, {kNoVertex}};
  expect_golden(records, WireCodec::kFixed,
                {0x11, 0x03, 0x1B, 0x04, 0x0C, 0x00, 0x00, 0x00, 0x00, 0x00,
                 0x00, 0x00, 0x04, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                 0x00, 0x04, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                 0x95, 0x70, 0xD3, 0x22});
  expect_golden(records, WireCodec::kCompact,
                {0x12, 0x03, 0x06, 0x04, 0x18, 0x04, 0x0D, 0x04, 0x0B, 0xDA,
                 0xD1, 0xD9, 0x82});
}

// ---- the decode loop --------------------------------------------------------

TEST(ColorRecordCodec, RoundTripsUnderBothCodecs) {
  Rng rng(31);
  for (int trial = 0; trial < 100; ++trial) {
    const auto records =
        random_records(rng, static_cast<int>(rng.uniform_int(1, 60)));
    std::vector<ColorRecord> expected;
    for (const Record& r : records) expected.push_back({r.a, r.c});
    for (const WireCodec codec : kBothCodecs) {
      const auto frame = encode(expected, codec);
      EXPECT_EQ(FrameReader(frame).records(),
                static_cast<std::int64_t>(records.size()));
      expect_same_records(decode<ColorRecord>(frame), expected);
    }
  }
}

TEST(ColorRecordCodec, EmptyPayloadDecodesAsNoRecords) {
  // FIAC sends a (possibly empty) message to every rank; a writer with no
  // records takes to zero bytes, and zero bytes decode to zero records.
  for (const WireCodec codec : kBothCodecs) {
    const auto frame = encode(std::vector<ColorRecord>{}, codec);
    EXPECT_TRUE(frame.empty());
    EXPECT_TRUE(decode<ColorRecord>(frame).empty());
  }
}

TEST(ColorRecordCodec, GarbledFrameThrows) {
  Rng rng(32);
  std::vector<ColorRecord> records;
  for (const Record& r : random_records(rng, 12)) records.push_back({r.a, r.c});
  for (const WireCodec codec : kBothCodecs) {
    auto frame = encode(records, codec);
    corrupt_one_bit(frame, 7);
    EXPECT_THROW((void)decode<ColorRecord>(frame), Error) << to_string(codec);
    const auto whole = encode(records, codec);
    const std::vector<std::byte> cut(whole.begin(), whole.end() - 1);
    EXPECT_THROW((void)decode<ColorRecord>(cut), Error) << to_string(codec);
  }
}

TEST(ColorRecordCodec, TrailingGarbageThrows) {
  // A well-formed, correctly checksummed frame whose payload holds one byte
  // more than its declared records: only the done() check can catch it.
  for (const WireCodec codec : kBothCodecs) {
    FrameWriter w(codec);
    w.put(ColorRecord{42, 3});
    test::FrameParts parts = test::take_parts(w);
    parts.payload.push_back(std::byte{0x7F});
    const auto frame = test::seal_frame(parts);
    ASSERT_TRUE(FrameReader(frame).valid());
    EXPECT_THROW((void)decode<ColorRecord>(frame), Error) << to_string(codec);
  }
}

TEST(FrameCodec, TaggedKindsShareAFrameInOrder) {
  using Request = MatchProcess::Request;
  using Failed = MatchProcess::Failed;
  using Invalidate = IncrementalMatchProcess::Invalidate;
  for (const WireCodec codec : kBothCodecs) {
    FrameWriter w(codec);
    w.put(Request{10, 11});
    w.put(Failed{12});
    w.put(Invalidate{9});
    w.put(Request{kNoVertex, 3});
    std::vector<std::variant<Request, Failed, Invalidate>> got;
    for_each_record<Request, Failed, Invalidate>(
        w.take(), [&](const auto& record) { got.emplace_back(record); });
    ASSERT_EQ(got.size(), 4u) << to_string(codec);
    EXPECT_EQ(std::get<Request>(got[0]).to, 11);
    EXPECT_EQ(std::get<Failed>(got[1]).vertex, 12);
    EXPECT_EQ(std::get<Invalidate>(got[2]).vertex, 9);
    EXPECT_EQ(std::get<Request>(got[3]).from, kNoVertex);
  }
}

TEST(FrameCodec, UnknownTagThrowsNamingIt) {
  FrameWriter w(WireCodec::kCompact);
  w.put(IncrementalMatchProcess::Invalidate{5});
  const auto frame = w.take();
  try {
    for_each_record<MatchProcess::Request, MatchProcess::Failed>(
        frame, [](const auto&) {});
    FAIL() << "an INVALIDATE decoded as a matching record";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown record tag 4"),
              std::string::npos)
        << e.what();
  }
}

// A checksum-valid compact frame can carry a color varint outside Color's
// range; narrowing it would read 2^32 + 7 as color 7.
TEST(FrameCodec, OutOfRangeColorThrows) {
  VarintWriter payload;
  payload.put_svarint(0);
  payload.put_svarint((std::int64_t{1} << 32) + 7);
  const auto frame = test::seal_frame({WireCodec::kCompact, 1, payload.take()});
  EXPECT_THROW((void)decode<ColorRecord>(frame), Error);
}

// A compact id chain can be driven past INT64_MAX: signed overflow, which
// the decoder must reject for a chained id and a relative one alike.
TEST(FrameCodec, IdChainOverflowThrows) {
  VarintWriter payload;
  payload.put_svarint(INT64_MAX);
  payload.put_svarint(1);
  const std::vector<std::byte> bytes = payload.take();
  // Two chained ids: INT64_MAX, then INT64_MAX + 1.
  EXPECT_THROW((void)decode<test::IdRecord>(
                   test::seal_frame({WireCodec::kCompact, 2, bytes})),
               Error);
  // One mate record: id INT64_MAX, mate INT64_MAX + 1.
  EXPECT_THROW((void)decode<MateRecord>(
                   test::seal_frame({WireCodec::kCompact, 1, bytes})),
               Error);
}

// ---- corruption and truncation detection ------------------------------------

TEST(FrameCodec, EverySingleBitFlipIsDetected) {
  Rng rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    const auto records =
        random_records(rng, static_cast<int>(rng.uniform_int(1, 20)));
    for (const WireCodec codec : kBothCodecs) {
      const auto frame = encode(records, codec);
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
    const auto frame = encode(records, codec);
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
  const auto frame = encode(records, WireCodec::kCompact);
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
    auto frame = test::id_frame(1);
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
  ASSERT_TRUE(FrameReader(frame).valid());
  EXPECT_THROW((void)decode<test::IdRecord>(frame), Error);
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

// A frame that declares more records than its payload holds must throw
// rather than return garbage.
TEST(FrameCodec, OverreadThrows) {
  for (const WireCodec codec : kBothCodecs) {
    FrameWriter w(codec);
    w.put(test::IdRecord{5});
    test::FrameParts parts = test::take_parts(w);
    EXPECT_EQ(decode<test::IdRecord>(test::seal_frame(parts)).size(), 1u);
    parts.records = 2;
    EXPECT_THROW((void)decode<test::IdRecord>(test::seal_frame(parts)), Error)
        << to_string(codec);
  }
}

}  // namespace
}  // namespace pmc
