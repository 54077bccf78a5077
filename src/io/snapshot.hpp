/// \file snapshot.hpp
/// \brief Versioned binary serialization for fitted models — the durable
/// interchange layer under the serving fleet's persistence
/// (docs/persistence-format.md is the normative byte-level spec).
///
/// Every persistent file is framed the same way: an 8-byte magic plus a
/// little-endian u32 format version, followed by sections of
/// `tag | payload length | payload | CRC32(payload)`. All integers are
/// explicit little-endian regardless of host order; all floating-point
/// payloads are raw IEEE-754 bit patterns, so a model round-trips
/// *bitwise* — the reloaded `ss::DescriptorSystem` serves answers
/// identical to the one that was saved.
///
/// ```cpp
/// io::save_system_snapshot("pdn.mfti", report->model);
/// auto sys = io::load_system_snapshot("pdn.mfti");   // bitwise equal
/// ```
///
/// The serving layer builds on these primitives: `serving::RegistryJournal`
/// frames its write-ahead records with the same section format, and
/// `serving::ModelRegistry::open` replays them (model_registry.hpp).

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "api/model_handle.hpp"
#include "api/status.hpp"
#include "linalg/matrix.hpp"
#include "statespace/descriptor.hpp"

namespace mfti::io {

/// Bumped when the byte layout changes incompatibly. Readers reject files
/// with a newer version and keep decoding every older one; see
/// docs/persistence-format.md for the compatibility rules and the
/// per-version layouts. Version 2 added the registry quarantine block
/// and the `JQUA`/`JPRO`/`JDSC` journal records.
inline constexpr std::uint32_t kSnapshotFormatVersion = 2;

/// File magics (8 bytes, not NUL-terminated on disk).
inline constexpr char kSnapshotMagic[9] = "MFTISNAP";
inline constexpr char kJournalMagic[9] = "MFTIJRNL";

/// Section tags (four ASCII characters, serialized little-endian).
constexpr std::uint32_t fourcc(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

inline constexpr std::uint32_t kSectionSystem = fourcc('S', 'Y', 'S', 'T');
inline constexpr std::uint32_t kSectionModel = fourcc('M', 'O', 'D', 'L');

/// The reserved u64 that precedes the model in a `MODL` payload and in a
/// persisted registry version. It was the handle's pencil-cache capacity;
/// writers still write the old default so an older reader reopening the
/// file behaves as before, and readers ignore the word.
inline constexpr std::uint64_t kReservedModelWord = 128;

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, init/final XOR 0xFFFFFFFF).
/// Pass a previous result as `seed` to checksum data in pieces.
std::uint32_t crc32(const void* data, std::size_t len,
                    std::uint32_t seed = 0);

/// Thrown by `ByteReader` on malformed input. File-level entry points
/// catch it and report `api::Status` instead; only the low-level
/// primitives throw.
class SnapshotFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only little-endian encoder over a growable byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  /// IEEE-754 bit pattern, so doubles round-trip exactly (NaNs included).
  void f64(double v);
  /// u64 length followed by the raw bytes.
  void str(std::string_view v);

  const std::string& bytes() const { return buffer_; }
  std::string take() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Bounds-checked little-endian decoder over a byte view.
/// \throws SnapshotFormatError on reads past the end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::string str();

  std::size_t remaining() const { return bytes_.size() - offset_; }
  bool at_end() const { return offset_ == bytes_.size(); }
  /// \throws SnapshotFormatError unless the whole view was consumed —
  /// trailing bytes in a section mean writer/reader disagree on layout.
  void expect_end() const;

 private:
  const char* take(std::size_t n);

  std::string_view bytes_;
  std::size_t offset_ = 0;
};

// --- section framing --------------------------------------------------------

/// One parsed `tag | length | payload | crc` section (view into the file
/// buffer — keep the buffer alive).
struct SectionView {
  std::uint32_t tag = 0;
  std::string_view payload;
};

enum class SectionParse {
  Ok,         ///< section read and CRC verified; offset advanced past it
  Truncated,  ///< buffer ends mid-section (a torn trailing write)
  BadCrc,     ///< section complete but its checksum does not match
};

/// Append `tag | len | payload | crc32(payload)` to `out`.
void append_section(std::string& out, std::uint32_t tag,
                    std::string_view payload);

/// Parse the section starting at `offset`. On `Ok`, fills `out` and
/// advances `offset`; otherwise `offset` is unchanged (the start of the
/// bad section — the truncation point for torn-tail recovery).
SectionParse parse_section(std::string_view buffer, std::size_t* offset,
                           SectionView* out);

/// Append the 12-byte file header `magic | format version`.
void append_file_header(std::string& out, const char* magic8,
                        std::uint32_t version);

/// Check the header at the start of `buffer`: magic must match and the
/// version must be <= `max_version` (older readers reject newer files).
/// On ok, `*offset` advances past the header and the file's version is
/// returned through `*version`.
api::Status check_file_header(std::string_view buffer, const char* magic8,
                              std::uint32_t max_version, std::size_t* offset,
                              std::uint32_t* version);

// --- model payload encodings ------------------------------------------------

void write_matrix(ByteWriter& out, const la::Mat& m);
la::Mat read_matrix(ByteReader& in);

/// E, A, B, C, D in order, each as `rows | cols | row-major f64`.
void write_system(ByteWriter& out, const ss::DescriptorSystem& sys);
ss::DescriptorSystem read_system(ByteReader& in);

// --- whole files ------------------------------------------------------------

/// Write `bytes` to `path` atomically: a `path + ".tmp"` sibling is
/// written, flushed, and renamed over `path`, so readers never observe a
/// half-written snapshot.
api::Status write_file_atomic(const std::string& path,
                              const std::string& bytes);

/// The whole file as a byte string, or not-found / invalid-argument.
api::Expected<std::string> read_file(const std::string& path);

/// One `SYST` section under the snapshot header.
api::Status save_system_snapshot(const std::string& path,
                                 const ss::DescriptorSystem& sys);
api::Expected<ss::DescriptorSystem> load_system_snapshot(
    const std::string& path);

/// One `MODL` section: the reserved word (`kReservedModelWord`) followed
/// by the handle's model. A reloaded handle serves bitwise-identical
/// answers.
api::Status save_model_snapshot(const std::string& path,
                                const api::ModelHandle& handle);
api::Expected<std::shared_ptr<const api::ModelHandle>> load_model_snapshot(
    const std::string& path);

}  // namespace mfti::io
