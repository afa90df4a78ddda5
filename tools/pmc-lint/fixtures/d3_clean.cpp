// Fixture: D3 must stay silent — wire traffic goes through the frame codec's
// typed record API; no raw byte copies of structs in sight.
#include <cstdint>
#include <vector>

struct ColorRecord {
  std::int64_t id;
  std::int32_t color;
};

struct FrameWriter {
  void put(const ColorRecord&) {}
  std::vector<std::byte> take() { return {}; }
};

std::vector<std::byte> encode(std::int64_t vertex, std::int32_t color) {
  FrameWriter w;
  w.put(ColorRecord{vertex, color});
  return w.take();
}
