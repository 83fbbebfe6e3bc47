#include "detect/sketch_wire.hpp"

#include <utility>

#include "common/byte_io.hpp"
#include "common/hash.hpp"

namespace hifind {

const char* wire_fault_name(WireFault fault) {
  switch (fault) {
    case WireFault::kBadMagic:
      return "bad magic";
    case WireFault::kTruncated:
      return "truncated";
    case WireFault::kBadLength:
      return "bad length";
    case WireFault::kChecksumMismatch:
      return "checksum mismatch";
    case WireFault::kBadPayload:
      return "bad payload";
    case WireFault::kTrailingBytes:
      return "trailing bytes";
  }
  return "unknown";
}

WireError::WireError(WireFault fault, const std::string& detail)
    : std::runtime_error("SketchBank wire [" +
                         std::string(wire_fault_name(fault)) + "]: " + detail),
      fault_(fault) {}

/// Friend of SketchBank: packs/unpacks the counter arrays.
///
/// Backend handling: HFB2 predates backend selection, so its config block
/// has no backend fields — banks on the default reversible backend still
/// serialize as byte-identical HFB2 frames (old collectors keep working).
/// A bank on any other backend gets an HFB3 frame, whose config block
/// appends the backend tag and the compact shapes; everything after the
/// config (ten flat f64 arrays + packet count) is layout-identical.
class SketchBankWire {
 public:
  static constexpr std::uint32_t kMagicV1 = 0x31424648;  // "HFB1"
  static constexpr std::uint32_t kMagicV2 = 0x32424648;  // "HFB2"
  static constexpr std::uint32_t kMagicV3 = 0x33424648;  // "HFB3"

  static bool needs_v3(const SketchBank& bank) {
    // V2 is chosen iff the config is FULLY representable in a V2 frame: the
    // default backend and the default compact shapes (which is what a V2
    // reader reconstructs). A reversible bank with customized compact
    // shapes must ship them, or the round-trip would break the config
    // equality that gates COMBINE.
    static const SketchBankConfig defaults{};
    const SketchBankConfig& c = bank.config();
    return c.backend != SketchBackendKind::kReversible ||
           c.ci48 != defaults.ci48 || c.ci64 != defaults.ci64;
  }

  static void serialize_body(ByteWriter& w, const SketchBank& bank,
                             bool extended) {
    write_config(w, bank.config(), extended);
    w.f64_span(bank.rs_sip_dport_.counters());
    w.f64_span(bank.rs_dip_dport_.counters());
    w.f64_span(bank.rs_sip_dip_.counters());
    w.f64_span(bank.verif_sip_dport_.counters());
    w.f64_span(bank.verif_dip_dport_.counters());
    w.f64_span(bank.verif_sip_dip_.counters());
    w.f64_span(bank.os_dip_dport_.counters());
    w.f64_span(bank.twod_sipdip_dport_.cells());
    w.f64_span(bank.twod_sipdport_dip_.cells());
    w.f64_span(bank.synack_history_.counters());
    w.u64(bank.packets_recorded_);
  }

  /// Parses the body (config + counters); shared by every frame version.
  /// Translates the untyped ByteReader/load_counters errors into WireError.
  static SketchBank deserialize_body(ByteReader& r, bool extended) {
    try {
      const SketchBankConfig cfg = read_config(r, extended);
      // Refuse before constructing the bank unless the config's implied
      // counter footprint matches the bytes actually present. Without this,
      // a flipped byte in a num_buckets/num_stages field makes the decoder
      // ALLOCATE the corrupt (possibly multi-GB) shape before the size
      // mismatch is noticed — an allocation-DoS a flood of corrupt frames
      // could drive at the central site.
      check_footprint(cfg, r.remaining());
      SketchBank bank(cfg);
      try {
        bank.rs_sip_dport_.load_counters(r.f64_vector());
        bank.rs_dip_dport_.load_counters(r.f64_vector());
        bank.rs_sip_dip_.load_counters(r.f64_vector());
        bank.verif_sip_dport_.load_counters(r.f64_vector());
        bank.verif_dip_dport_.load_counters(r.f64_vector());
        bank.verif_sip_dip_.load_counters(r.f64_vector());
        bank.os_dip_dport_.load_counters(r.f64_vector());
        bank.twod_sipdip_dport_.load_cells(r.f64_vector());
        bank.twod_sipdport_dip_.load_cells(r.f64_vector());
        bank.synack_history_.load_counters(r.f64_vector());
      } catch (const std::invalid_argument& e) {
        // Counter-array sizes disagree with the embedded config.
        throw WireError(WireFault::kBadPayload, e.what());
      }
      bank.packets_recorded_ = r.u64();
      return bank;
    } catch (const WireError&) {
      throw;
    } catch (const std::invalid_argument& e) {
      // The embedded config itself violates a sketch invariant.
      throw WireError(WireFault::kBadPayload, e.what());
    } catch (const std::runtime_error& e) {
      // ByteReader underrun: the body ends mid-field.
      throw WireError(WireFault::kTruncated, e.what());
    }
  }

 private:
  /// Exact serialized body size the config implies, compared against the
  /// bytes that follow it. Loose per-field caps first, so the arithmetic
  /// cannot overflow and absurd shapes are rejected without allocation.
  static void check_footprint(const SketchBankConfig& c,
                              std::uint64_t remaining) {
    const auto cap = [](std::uint64_t v, std::uint64_t max) {
      if (v > max) {
        throw WireError(WireFault::kBadPayload,
                        "config field exceeds sane bounds");
      }
      return v;
    };
    using u128 = unsigned __int128;
    const auto rs_len = [&](const ReversibleSketchConfig& rs) {
      return u128{cap(static_cast<std::uint64_t>(rs.num_stages), 64)}
             << cap(static_cast<std::uint64_t>(rs.bucket_bits), 30);
    };
    // Compact backend: per bucket 1 value counter + key_bits bit counters.
    const auto ci_len = [&](const CompactInvertibleConfig& ci) {
      return (u128{cap(static_cast<std::uint64_t>(ci.num_stages), 64)}
              << cap(static_cast<std::uint64_t>(ci.bucket_bits), 30)) *
             (1 + cap(static_cast<std::uint64_t>(ci.key_bits), 64));
    };
    const auto kary_len = [&](const KarySketchConfig& k) {
      return u128{cap(k.num_stages, 64)} * cap(k.num_buckets, 1u << 30);
    };
    const u128 twod_len = u128{cap(c.twod.num_stages, 64)} *
                          cap(c.twod.x_buckets, 1u << 30) *
                          cap(c.twod.y_buckets, 1u << 30);
    const bool compact = c.backend == SketchBackendKind::kCompact;
    const u128 inv_doubles = compact ? 2 * ci_len(c.ci48) + ci_len(c.ci64)
                                     : 2 * rs_len(c.rs48) + rs_len(c.rs64);
    const u128 doubles = inv_doubles +
                         4 * kary_len(c.verification) +  // 3 verif + history
                         kary_len(c.original) + 2 * twod_len;
    // Ten length-prefixed f64 arrays plus the packets_recorded trailer.
    const u128 expected = 8 * doubles + 10 * 8 + 8;
    if (expected > remaining) {
      throw WireError(WireFault::kTruncated,
                      "payload shorter than the embedded config implies");
    }
    if (expected < remaining) {
      throw WireError(WireFault::kTrailingBytes,
                      "payload longer than the embedded config implies");
    }
  }

  static void write_config(ByteWriter& w, const SketchBankConfig& c,
                           bool extended) {
    w.u64(c.seed);
    w.u8(static_cast<std::uint8_t>(c.rs48.key_bits));
    w.u64(c.rs48.num_stages);
    w.u8(static_cast<std::uint8_t>(c.rs48.bucket_bits));
    w.u8(static_cast<std::uint8_t>(c.rs64.key_bits));
    w.u64(c.rs64.num_stages);
    w.u8(static_cast<std::uint8_t>(c.rs64.bucket_bits));
    w.u64(c.verification.num_stages);
    w.u64(c.verification.num_buckets);
    w.u64(c.original.num_stages);
    w.u64(c.original.num_buckets);
    w.u64(c.twod.num_stages);
    w.u64(c.twod.x_buckets);
    w.u64(c.twod.y_buckets);
    if (extended) {  // HFB3 appendix: backend tag + compact shapes
      w.u8(static_cast<std::uint8_t>(c.backend));
      w.u8(static_cast<std::uint8_t>(c.ci48.key_bits));
      w.u64(c.ci48.num_stages);
      w.u8(static_cast<std::uint8_t>(c.ci48.bucket_bits));
      w.u8(static_cast<std::uint8_t>(c.ci64.key_bits));
      w.u64(c.ci64.num_stages);
      w.u8(static_cast<std::uint8_t>(c.ci64.bucket_bits));
    }
  }

  static SketchBankConfig read_config(ByteReader& r, bool extended) {
    SketchBankConfig c;
    c.seed = r.u64();
    c.rs48.key_bits = r.u8();
    c.rs48.num_stages = r.u64();
    c.rs48.bucket_bits = r.u8();
    c.rs64.key_bits = r.u8();
    c.rs64.num_stages = r.u64();
    c.rs64.bucket_bits = r.u8();
    c.verification.num_stages = r.u64();
    c.verification.num_buckets = r.u64();
    c.original.num_stages = r.u64();
    c.original.num_buckets = r.u64();
    c.twod.num_stages = r.u64();
    c.twod.x_buckets = r.u64();
    c.twod.y_buckets = r.u64();
    if (extended) {
      const std::uint8_t backend = r.u8();
      if (backend > static_cast<std::uint8_t>(SketchBackendKind::kCompact)) {
        throw WireError(WireFault::kBadPayload, "unknown sketch backend tag");
      }
      c.backend = static_cast<SketchBackendKind>(backend);
      c.ci48.key_bits = r.u8();
      c.ci48.num_stages = r.u64();
      c.ci48.bucket_bits = r.u8();
      c.ci64.key_bits = r.u8();
      c.ci64.num_stages = r.u64();
      c.ci64.bucket_bits = r.u8();
    }
    return c;
  }
};

namespace {

/// Fixed HFB2 preamble: magic u32 | router u32 | interval u64 | payload_len
/// u64 | crc u32.
constexpr std::size_t kV2HeaderBytes = 4 + 4 + 8 + 8 + 4;

SketchBank parse_body_span(std::span<const std::uint8_t> body,
                           bool extended) {
  ByteReader r(body);
  SketchBank bank = SketchBankWire::deserialize_body(r, extended);
  if (!r.exhausted()) {
    throw WireError(WireFault::kTrailingBytes, "payload longer than bank");
  }
  return bank;
}

}  // namespace

std::vector<std::uint8_t> serialize_frame(const SketchBank& bank,
                                          std::uint32_t router_id,
                                          std::uint64_t interval) {
  const bool v3 = SketchBankWire::needs_v3(bank);
  ByteWriter payload;
  SketchBankWire::serialize_body(payload, bank, v3);
  const std::vector<std::uint8_t>& body = payload.bytes();

  ByteWriter w;
  w.u32(v3 ? SketchBankWire::kMagicV3 : SketchBankWire::kMagicV2);
  w.u32(router_id);
  w.u64(interval);
  w.u64(body.size());
  w.u32(crc32c(body));
  std::vector<std::uint8_t> out = w.take();
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

BankFrame deserialize_frame(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4) {
    throw WireError(WireFault::kTruncated, "no room for magic");
  }
  ByteReader r(bytes);
  const std::uint32_t magic = r.u32();

  if (magic == SketchBankWire::kMagicV1) {
    SketchBank bank = SketchBankWire::deserialize_body(r, false);
    if (!r.exhausted()) {
      throw WireError(WireFault::kTrailingBytes, "bytes after HFB1 bank");
    }
    return BankFrame{1, 0, 0, std::move(bank)};
  }
  if (magic != SketchBankWire::kMagicV2 && magic != SketchBankWire::kMagicV3) {
    throw WireError(WireFault::kBadMagic, "not an HFB1/HFB2/HFB3 frame");
  }
  const bool extended = magic == SketchBankWire::kMagicV3;

  if (bytes.size() < kV2HeaderBytes) {
    throw WireError(WireFault::kTruncated, "frame shorter than HFB2 header");
  }
  const std::uint32_t router_id = r.u32();
  const std::uint64_t interval = r.u64();
  const std::uint64_t payload_len = r.u64();
  const std::uint32_t crc = r.u32();
  const std::span<const std::uint8_t> payload = bytes.subspan(kV2HeaderBytes);
  if (payload.size() < payload_len) {
    throw WireError(WireFault::kTruncated, "payload shorter than declared");
  }
  if (payload.size() > payload_len) {
    throw WireError(WireFault::kBadLength, "payload longer than declared");
  }
  if (crc32c(payload) != crc) {
    throw WireError(WireFault::kChecksumMismatch, "payload CRC-32C failed");
  }
  return BankFrame{static_cast<std::uint8_t>(extended ? 3 : 2), router_id,
                   interval, parse_body_span(payload, extended)};
}

std::vector<std::uint8_t> serialize_bank(const SketchBank& bank) {
  return serialize_frame(bank, 0, 0);
}

SketchBank deserialize_bank(std::span<const std::uint8_t> bytes) {
  return std::move(deserialize_frame(bytes).bank);
}

}  // namespace hifind
