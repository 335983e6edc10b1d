#include "stream/gutters.h"

#include <array>
#include <bit>

#include "util/check.h"

namespace gms {

void GutterStage::Seal(size_t n) {
  // The key packs the update ordinal into 31 bits below the vertex.
  GMS_CHECK_MSG(updates_.size() <= (uint64_t{1} << 31),
                "GutterStage: too many updates in one epoch");
  if (n <= 1 || keys_.size() <= 1) return;
  // LSD radix on the vertex bits only, at most 11 bits (a 2048-bucket
  // histogram that stays in L1) per pass; each pass is stable, so entries
  // of one vertex keep their staging (= stream) order.
  constexpr int kMaxDigitBits = 11;
  const int bits = std::bit_width(n - 1);
  const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int width = (bits + passes - 1) / passes;
  const uint64_t mask = (uint64_t{1} << width) - 1;
  std::array<size_t, size_t{1} << kMaxDigitBits> count;
  sort_scratch_.resize(keys_.size());
  for (int p = 0; p < passes; ++p) {
    const int shift = 32 + p * width;
    std::fill(count.begin(), count.begin() + (mask + 1), 0);
    for (const uint64_t key : keys_) ++count[(key >> shift) & mask];
    size_t sum = 0;
    for (size_t b = 0; b <= mask; ++b) {
      const size_t c = count[b];
      count[b] = sum;
      sum += c;
    }
    for (const uint64_t key : keys_) {
      sort_scratch_[count[(key >> shift) & mask]++] = key;
    }
    keys_.swap(sort_scratch_);
  }
}

}  // namespace gms
