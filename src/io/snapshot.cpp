#include "io/snapshot.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

namespace mfti::io {

namespace fs = std::filesystem;

// --- crc32 ------------------------------------------------------------------

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// --- ByteWriter -------------------------------------------------------------

void ByteWriter::u8(std::uint8_t v) {
  buffer_.push_back(static_cast<char>(v));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void ByteWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::str(std::string_view v) {
  u64(v.size());
  buffer_.append(v.data(), v.size());
}

// --- ByteReader -------------------------------------------------------------

const char* ByteReader::take(std::size_t n) {
  if (n > bytes_.size() - offset_) {
    throw SnapshotFormatError("snapshot: payload ends mid-field (need " +
                              std::to_string(n) + " bytes, have " +
                              std::to_string(bytes_.size() - offset_) + ")");
  }
  const char* p = bytes_.data() + offset_;
  offset_ += n;
  return p;
}

std::uint8_t ByteReader::u8() {
  return static_cast<std::uint8_t>(*take(1));
}

std::uint32_t ByteReader::u32() {
  const char* p = take(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t ByteReader::u64() {
  const char* p = take(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

std::int64_t ByteReader::i64() { return static_cast<std::int64_t>(u64()); }

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str() {
  const std::uint64_t len = u64();
  if (len > remaining()) {
    throw SnapshotFormatError("snapshot: string length " +
                              std::to_string(len) + " exceeds payload");
  }
  const char* p = take(static_cast<std::size_t>(len));
  return std::string(p, static_cast<std::size_t>(len));
}

void ByteReader::expect_end() const {
  if (!at_end()) {
    throw SnapshotFormatError("snapshot: " + std::to_string(remaining()) +
                              " unconsumed trailing bytes in section");
  }
}

// --- section framing --------------------------------------------------------

void append_section(std::string& out, std::uint32_t tag,
                    std::string_view payload) {
  ByteWriter frame;
  frame.u32(tag);
  frame.u64(payload.size());
  out += frame.bytes();
  out.append(payload.data(), payload.size());
  ByteWriter crc;
  crc.u32(crc32(payload.data(), payload.size()));
  out += crc.bytes();
}

SectionParse parse_section(std::string_view buffer, std::size_t* offset,
                           SectionView* out) {
  const std::size_t start = *offset;
  const std::size_t avail = buffer.size() - start;
  if (avail < 12) return SectionParse::Truncated;
  ByteReader head(buffer.substr(start, 12));
  const std::uint32_t tag = head.u32();
  const std::uint64_t len = head.u64();
  if (avail - 12 < len || avail - 12 - len < 4) {
    return SectionParse::Truncated;
  }
  const std::string_view payload =
      buffer.substr(start + 12, static_cast<std::size_t>(len));
  ByteReader tail(buffer.substr(start + 12 + payload.size(), 4));
  if (tail.u32() != crc32(payload.data(), payload.size())) {
    return SectionParse::BadCrc;
  }
  out->tag = tag;
  out->payload = payload;
  *offset = start + 12 + payload.size() + 4;
  return SectionParse::Ok;
}

void append_file_header(std::string& out, const char* magic8,
                        std::uint32_t version) {
  out.append(magic8, 8);
  ByteWriter w;
  w.u32(version);
  out += w.bytes();
}

api::Status check_file_header(std::string_view buffer, const char* magic8,
                              std::uint32_t max_version, std::size_t* offset,
                              std::uint32_t* version) {
  if (buffer.size() < 12) {
    return api::Status::invalid_argument(
        "snapshot: file shorter than the 12-byte header");
  }
  if (std::memcmp(buffer.data(), magic8, 8) != 0) {
    return api::Status::invalid_argument(
        "snapshot: bad magic (expected '" + std::string(magic8, 8) + "')");
  }
  ByteReader r(buffer.substr(8, 4));
  const std::uint32_t v = r.u32();
  if (v == 0 || v > max_version) {
    return api::Status::invalid_argument(
        "snapshot: format version " + std::to_string(v) +
        " not supported (this reader handles <= " +
        std::to_string(max_version) + ")");
  }
  *offset = 12;
  *version = v;
  return api::Status::ok();
}

// --- model payload encodings ------------------------------------------------

void write_matrix(ByteWriter& out, const la::Mat& m) {
  out.u64(m.rows());
  out.u64(m.cols());
  for (std::size_t k = 0; k < m.size(); ++k) out.f64(m.data()[k]);
}

la::Mat read_matrix(ByteReader& in) {
  const std::uint64_t rows = in.u64();
  const std::uint64_t cols = in.u64();
  if (cols != 0 && rows > in.remaining() / (8 * cols)) {
    throw SnapshotFormatError("snapshot: matrix " + std::to_string(rows) +
                              "x" + std::to_string(cols) +
                              " larger than its section");
  }
  la::Mat m(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  for (std::size_t k = 0; k < m.size(); ++k) m.data()[k] = in.f64();
  return m;
}

void write_system(ByteWriter& out, const ss::DescriptorSystem& sys) {
  write_matrix(out, sys.e);
  write_matrix(out, sys.a);
  write_matrix(out, sys.b);
  write_matrix(out, sys.c);
  write_matrix(out, sys.d);
}

ss::DescriptorSystem read_system(ByteReader& in) {
  ss::DescriptorSystem sys;
  sys.e = read_matrix(in);
  sys.a = read_matrix(in);
  sys.b = read_matrix(in);
  sys.c = read_matrix(in);
  sys.d = read_matrix(in);
  sys.validate();  // throws std::invalid_argument on inconsistent dims
  return sys;
}

// --- whole files ------------------------------------------------------------

api::Status write_file_atomic(const std::string& path,
                              const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return api::Status::invalid_argument("snapshot: cannot open '" + tmp +
                                           "' for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      return api::Status::internal("snapshot: short write to '" + tmp + "'");
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    return api::Status::internal("snapshot: rename '" + tmp + "' -> '" +
                                 path + "': " + ec.message());
  }
  return api::Status::ok();
}

api::Expected<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return api::Status::not_found("snapshot: cannot open '" + path + "'");
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    return api::Status::internal("snapshot: read error on '" + path + "'");
  }
  return bytes;
}

namespace {

/// Shared single-section loader: header check + one section of the
/// expected tag, with every parse failure reported as a Status.
api::Expected<std::string> load_single_section(const std::string& path,
                                               std::uint32_t expected_tag) {
  auto bytes = read_file(path);
  if (!bytes) return bytes.status();
  std::size_t offset = 0;
  std::uint32_t version = 0;
  if (auto st = check_file_header(*bytes, kSnapshotMagic,
                                  kSnapshotFormatVersion, &offset, &version);
      !st.is_ok()) {
    return api::Status(st.code(), "'" + path + "': " + st.message());
  }
  SectionView section;
  switch (parse_section(*bytes, &offset, &section)) {
    case SectionParse::Ok:
      break;
    case SectionParse::Truncated:
      // Corruption of a file this library wrote (snapshots are written
      // atomically, so neither case is a normal torn write): Internal,
      // matching the journal's corruption reporting.
      return api::Status::internal("'" + path +
                                   "': truncated snapshot section");
    case SectionParse::BadCrc:
      return api::Status::internal(
          "'" + path + "': snapshot section checksum mismatch");
  }
  if (section.tag != expected_tag) {
    return api::Status::invalid_argument("'" + path +
                                         "': unexpected section tag");
  }
  return std::string(section.payload);
}

}  // namespace

api::Status save_system_snapshot(const std::string& path,
                                 const ss::DescriptorSystem& sys) {
  ByteWriter payload;
  write_system(payload, sys);
  std::string bytes;
  append_file_header(bytes, kSnapshotMagic, kSnapshotFormatVersion);
  append_section(bytes, kSectionSystem, payload.bytes());
  return write_file_atomic(path, bytes);
}

api::Expected<ss::DescriptorSystem> load_system_snapshot(
    const std::string& path) {
  auto payload = load_single_section(path, kSectionSystem);
  if (!payload) return payload.status();
  try {
    ByteReader in(*payload);
    ss::DescriptorSystem sys = read_system(in);
    in.expect_end();
    return sys;
  } catch (const std::exception& e) {
    return api::Status::invalid_argument("'" + path + "': " + e.what());
  }
}

api::Status save_model_snapshot(const std::string& path,
                                const api::ModelHandle& handle) {
  ByteWriter payload;
  payload.u64(kReservedModelWord);
  write_system(payload, handle.model());
  std::string bytes;
  append_file_header(bytes, kSnapshotMagic, kSnapshotFormatVersion);
  append_section(bytes, kSectionModel, payload.bytes());
  return write_file_atomic(path, bytes);
}

api::Expected<std::shared_ptr<const api::ModelHandle>> load_model_snapshot(
    const std::string& path) {
  auto payload = load_single_section(path, kSectionModel);
  if (!payload) return payload.status();
  try {
    ByteReader in(*payload);
    in.u64();  // kReservedModelWord
    ss::DescriptorSystem sys = read_system(in);
    in.expect_end();
    return std::shared_ptr<const api::ModelHandle>(
        std::make_shared<const api::ModelHandle>(std::move(sys)));
  } catch (const std::exception& e) {
    return api::Status::invalid_argument("'" + path + "': " + e.what());
  }
}

}  // namespace mfti::io
