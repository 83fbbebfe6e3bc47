// Wire format for shipping SketchBanks from edge routers to the central
// aggregation site (paper Sec. 3.1: "we summarize the traffic information
// with compact sketches at each edge router, and deliver them quickly to
// some central site").
//
// Three frame versions, dispatched on the leading magic:
//
//   "HFB1" (legacy)   magic | config | counter arrays | packets_recorded
//   "HFB2" (current)  magic | router_id u32 | interval u64 | payload_len u64
//                     | crc32c(payload) u32 | payload
//                     where payload = config | counter arrays |
//                     packets_recorded (the HFB1 body, unchanged)
//   "HFB3"            HFB2 with the backend tag and the compact invertible
//                     shapes appended to the config block. Banks on the
//                     default reversible backend still serialize as
//                     byte-identical HFB2 frames; only a non-default backend
//                     selects HFB3, so pre-backend collectors interoperate
//                     until the day a compact bank actually reaches them.
//
// HFB2 exists because the collection path between routers and the central
// site is a real network: frames get truncated, corrupted, replayed and
// reordered. The header binds each frame to its sender and interval (replay
// / cross-wiring detection at the collector), the explicit payload length
// catches truncation before parsing, and the CRC-32C rejects bit corruption
// that would otherwise silently poison the central COMBINE. Hash families
// are NOT shipped — they are deterministic functions of the config seed,
// which is the property that makes cross-site COMBINE meaningful.
//
// Banks serialized before HFB2 existed still load: deserialize_bank /
// deserialize_frame accept both magics.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "detect/sketch_bank.hpp"

namespace hifind {

/// Why a frame was rejected. Collector-side policy keys off this (e.g. a
/// checksum mismatch counts toward sender quarantine; a truncated read on a
/// pull that raced the writer is retried).
enum class WireFault : std::uint8_t {
  kBadMagic,          ///< first four bytes are neither HFB1 nor HFB2
  kTruncated,         ///< frame shorter than its header/payload claims
  kBadLength,         ///< payload_len disagrees with the bytes present
  kChecksumMismatch,  ///< CRC-32C over the payload failed
  kBadPayload,        ///< payload parsed but is internally inconsistent
  kTrailingBytes,     ///< well-formed frame followed by extra bytes
};

const char* wire_fault_name(WireFault fault);

/// Typed rejection of a malformed frame. Derives from std::runtime_error so
/// pre-HFB2 call sites that caught the untyped error keep working.
class WireError : public std::runtime_error {
 public:
  WireError(WireFault fault, const std::string& detail);
  WireFault fault() const { return fault_; }

 private:
  WireFault fault_;
};

/// A decoded shipment: the bank plus the HFB2 header that routes it.
/// Legacy HFB1 frames decode with version 1 and zeroed header fields (the
/// collector then trusts the fetch address instead of the frame header).
struct BankFrame {
  std::uint8_t version{2};
  std::uint32_t router_id{0};
  std::uint64_t interval{0};
  SketchBank bank;
};

/// Serializes one router's bank for one interval as an HFB2 frame.
std::vector<std::uint8_t> serialize_frame(const SketchBank& bank,
                                          std::uint32_t router_id,
                                          std::uint64_t interval);

/// Decodes either frame version; throws WireError on malformed input.
BankFrame deserialize_frame(std::span<const std::uint8_t> bytes);

/// Serializes a bank with a default header (router 0, interval 0). Kept as
/// the simple API for single-site uses that don't care about provenance.
std::vector<std::uint8_t> serialize_bank(const SketchBank& bank);

/// Reconstructs a bank from serialize_bank / serialize_frame output, either
/// version. Throws WireError (a std::runtime_error) on malformed input.
SketchBank deserialize_bank(std::span<const std::uint8_t> bytes);

}  // namespace hifind
