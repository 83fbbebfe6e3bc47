// Legacy HFB1 frames for the decode tests. The library reads HFB1 but
// writes only HFB2/HFB3; an HFB1 frame is the magic "HFB1" followed by the
// HFB2 payload of a reversible-backend bank, which is the same body.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "detect/sketch_wire.hpp"

namespace hifind::testing {

inline std::vector<std::uint8_t> hfb1_frame(const SketchBank& bank) {
  // HFB2 preamble: magic u32 | router u32 | interval u64 | payload_len u64
  // | crc u32.
  constexpr std::size_t kV2HeaderBytes = 4 + 4 + 8 + 8 + 4;
  const std::vector<std::uint8_t> v2 = serialize_frame(bank, 0, 0);
  if (v2[3] != '2') {
    throw std::invalid_argument(
        "hfb1_frame: HFB1 predates backend selection and can only encode "
        "banks on the reversible backend");
  }
  // Keep the payload plus four bytes of room for the magic.
  std::vector<std::uint8_t> out(v2.begin() + (kV2HeaderBytes - 4), v2.end());
  std::memcpy(out.data(), "HFB1", 4);
  return out;
}

}  // namespace hifind::testing
