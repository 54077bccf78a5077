#include "serving/registry_journal.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "io/fault_injector.hpp"

namespace mfti::serving {

namespace fs = std::filesystem;

// --- payload encodings ------------------------------------------------------

void write_model_info(io::ByteWriter& out, const ModelInfo& info) {
  out.str(info.name);
  out.u64(info.version);
  out.u64(info.order);
  out.u64(info.num_inputs);
  out.u64(info.num_outputs);
  out.u8(info.algorithm.has_value() ? 1 : 0);
  out.u32(info.algorithm
              ? static_cast<std::uint32_t>(*info.algorithm)
              : 0);
  out.f64(info.fit_seconds);
  out.i64(std::chrono::duration_cast<std::chrono::nanoseconds>(
              info.published_at.time_since_epoch())
              .count());
  out.u64(info.history_depth);
}

ModelInfo read_model_info(io::ByteReader& in) {
  ModelInfo info;
  info.name = in.str();
  info.version = in.u64();
  info.order = static_cast<std::size_t>(in.u64());
  info.num_inputs = static_cast<std::size_t>(in.u64());
  info.num_outputs = static_cast<std::size_t>(in.u64());
  const bool has_algorithm = in.u8() != 0;
  const std::uint32_t algorithm = in.u32();
  if (has_algorithm) {
    if (algorithm >= api::kNumAlgorithms) {
      throw io::SnapshotFormatError("journal: unknown algorithm tag " +
                                    std::to_string(algorithm));
    }
    info.algorithm = static_cast<api::Algorithm>(algorithm);
  }
  info.fit_seconds = in.f64();
  info.published_at = std::chrono::system_clock::time_point(
      std::chrono::duration_cast<std::chrono::system_clock::duration>(
          std::chrono::nanoseconds(in.i64())));
  info.history_depth = static_cast<std::size_t>(in.u64());
  return info;
}

void write_persisted_version(io::ByteWriter& out,
                             const VersionedModel& version) {
  write_model_info(out, version.info);
  out.u64(io::kReservedModelWord);
  io::write_system(out, version.handle->model());
}

VersionedModel read_persisted_version(io::ByteReader& in) {
  VersionedModel version;
  version.info = read_model_info(in);
  in.u64();  // io::kReservedModelWord
  version.handle =
      std::make_shared<const api::ModelHandle>(io::read_system(in));
  return version;
}

void write_verification_report(io::ByteWriter& out,
                               const VerificationReport& report) {
  out.u8(report.passed ? 1 : 0);
  out.u64(report.checks.size());
  for (const VerificationCheck& check : report.checks) {
    out.str(check.name);
    out.u8(check.passed ? 1 : 0);
    out.u32(static_cast<std::uint32_t>(check.status.code()));
    out.str(check.status.message());
    out.f64(check.value);
    out.f64(check.threshold);
    out.str(check.detail);
    out.f64(check.seconds);
  }
}

VerificationReport read_verification_report(io::ByteReader& in) {
  VerificationReport report;
  report.passed = in.u8() != 0;
  const std::uint64_t num_checks = in.u64();
  report.checks.reserve(static_cast<std::size_t>(num_checks));
  for (std::uint64_t c = 0; c < num_checks; ++c) {
    VerificationCheck check;
    check.name = in.str();
    check.passed = in.u8() != 0;
    const std::uint32_t code = in.u32();
    if (code >= api::kNumStatusCodes) {
      throw io::SnapshotFormatError(
          "verification report: unknown status code " +
          std::to_string(code));
    }
    std::string message = in.str();
    check.status =
        api::Status(static_cast<api::StatusCode>(code), std::move(message));
    check.value = in.f64();
    check.threshold = in.f64();
    check.detail = in.str();
    check.seconds = in.f64();
    report.checks.push_back(std::move(check));
  }
  return report;
}

// --- record framing ---------------------------------------------------------

namespace {

std::string encode_record(const JournalRecord& record) {
  io::ByteWriter payload;
  payload.u64(record.seq);
  switch (record.op) {
    case kRecordPublish:
      write_persisted_version(payload, record.version);
      break;
    case kRecordRollback:
      payload.str(record.name);
      payload.u64(record.rollback_to);
      break;
    case kRecordRemove:
      payload.str(record.name);
      break;
    case kRecordQuarantine:
      write_persisted_version(payload, record.version);
      write_verification_report(payload, record.verification);
      break;
    case kRecordPromote:
    case kRecordDiscard:
      payload.str(record.name);
      payload.u64(record.subject_version);
      break;
    default:
      throw io::SnapshotFormatError("journal: unencodable record op");
  }
  std::string bytes;
  io::append_section(bytes, record.op, payload.bytes());
  return bytes;
}

JournalRecord decode_record(const io::SectionView& section) {
  JournalRecord record;
  record.op = section.tag;
  io::ByteReader in(section.payload);
  record.seq = in.u64();
  switch (section.tag) {
    case kRecordPublish:
      record.version = read_persisted_version(in);
      record.name = record.version.info.name;
      break;
    case kRecordRollback:
      record.name = in.str();
      record.rollback_to = in.u64();
      break;
    case kRecordRemove:
      record.name = in.str();
      break;
    case kRecordQuarantine:
      record.version = read_persisted_version(in);
      record.name = record.version.info.name;
      record.verification = read_verification_report(in);
      break;
    case kRecordPromote:
    case kRecordDiscard:
      record.name = in.str();
      record.subject_version = in.u64();
      break;
    default:
      throw io::SnapshotFormatError("journal: unknown record tag");
  }
  in.expect_end();
  return record;
}

/// Truncate `path` to `size` bytes and warn — the torn-final-record
/// recovery path. Truncation failure is reported but replay continues
/// with the records already decoded (the next append rewrites the tail).
void truncate_torn_tail(const std::string& path, std::size_t size,
                        const char* what) {
  std::fprintf(stderr,
               "[mfti.serving] journal '%s': %s; truncating to the last "
               "complete record (%zu bytes)\n",
               path.c_str(), what, size);
  std::error_code ec;
  fs::resize_file(path, size, ec);
  if (ec) {
    std::fprintf(stderr,
                 "[mfti.serving] journal '%s': truncation failed: %s\n",
                 path.c_str(), ec.message().c_str());
  }
}

}  // namespace

// --- RegistryJournal --------------------------------------------------------

api::Expected<RegistryJournal::Replay> RegistryJournal::replay(
    const std::string& path) {
  Replay result;
  std::error_code ec;
  if (!fs::exists(path, ec)) return result;
  auto bytes = io::read_file(path);
  if (!bytes) return bytes.status();
  if (bytes->size() < 12) {
    // A crash while writing the very first header: nothing was ever
    // journaled, so an empty journal is the correct recovery.
    truncate_torn_tail(path, 0, "torn file header");
    result.recovered_torn_tail = true;
    return result;
  }
  std::size_t offset = 0;
  std::uint32_t version = 0;
  if (auto st =
          io::check_file_header(*bytes, io::kJournalMagic,
                                io::kSnapshotFormatVersion, &offset,
                                &version);
      !st.is_ok()) {
    return api::Status(st.code(), "'" + path + "': " + st.message());
  }
  while (offset < bytes->size()) {
    io::SectionView section;
    const io::SectionParse parse =
        io::parse_section(*bytes, &offset, &section);
    if (parse == io::SectionParse::Truncated) {
      truncate_torn_tail(path, offset, "torn trailing record");
      result.recovered_torn_tail = true;
      break;
    }
    if (parse == io::SectionParse::BadCrc) {
      // Distinguish a torn final record (its length field may be garbage,
      // but nothing follows it) from mid-file corruption: checksum
      // failures with further complete records behind them cannot come
      // from a torn append.
      io::ByteReader head(
          std::string_view(*bytes).substr(offset + 4, 8));
      const std::uint64_t len = head.u64();
      if (offset + 12 + len + 4 >= bytes->size()) {
        truncate_torn_tail(path, offset, "checksum mismatch in the final "
                                         "record (torn write)");
        result.recovered_torn_tail = true;
        break;
      }
      return api::Status::internal(
          "'" + path + "': journal record checksum mismatch before the "
          "final record — the journal is corrupt, not torn; see "
          "docs/operations.md (\"Recovering from corruption\")");
    }
    try {
      result.records.push_back(decode_record(section));
    } catch (const std::exception& e) {
      return api::Status::internal("'" + path + "': undecodable record " +
                                   std::to_string(result.records.size()) +
                                   ": " + e.what());
    }
  }
  return result;
}

api::Expected<RegistryJournal> RegistryJournal::open(
    const std::string& path) {
  std::error_code ec;
  std::size_t size = 0;
  if (fs::exists(path, ec)) {
    size = static_cast<std::size_t>(fs::file_size(path, ec));
    if (ec) {
      return api::Status::internal("journal '" + path + "': " +
                                   ec.message());
    }
  }
  if (size < 12) {
    std::string header;
    io::append_file_header(header, io::kJournalMagic,
                           io::kSnapshotFormatVersion);
    if (auto st = io::write_file_atomic(path, header); !st.is_ok()) {
      return st;
    }
    size = header.size();
  }
  return RegistryJournal(path, size);
}

api::Status RegistryJournal::append(const JournalRecord& record) {
  std::string bytes;
  try {
    bytes = encode_record(record);
  } catch (const std::exception& e) {
    return api::Status::internal(std::string("journal: ") + e.what());
  }
  if (faults_) {
    const io::FaultInjector::Fate fate = faults_->next_write(bytes.size());
    if (!fate.status.is_ok()) {
      if (fate.write_prefix > 0) {
        // Simulated crash mid-append: the torn prefix stays on disk so
        // the next open's replay exercises torn-tail recovery.
        std::ofstream torn(path_, std::ios::binary | std::ios::app);
        if (torn) {
          torn.write(bytes.data(),
                     static_cast<std::streamsize>(
                         std::min(fate.write_prefix, bytes.size())));
          torn.flush();
        }
      }
      return fate.status;
    }
  }
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  if (!out) {
    return api::Status::internal("journal '" + path_ +
                                 "': cannot open for append");
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    // Drop any partially-written tail now, while the writer is alive —
    // otherwise a *later* successful append would bury the torn record
    // mid-file, which replay must treat as corruption, not a torn tail.
    std::error_code ec;
    fs::resize_file(path_, bytes_, ec);
    if (ec) {
      std::fprintf(stderr,
                   "[mfti.serving] journal '%s': failed append left a torn "
                   "tail that could not be truncated: %s\n",
                   path_.c_str(), ec.message().c_str());
    }
    return api::Status::internal("journal '" + path_ + "': short append");
  }
  bytes_ += bytes.size();
  ++records_;
  return api::Status::ok();
}

api::Status RegistryJournal::reset() {
  std::string header;
  io::append_file_header(header, io::kJournalMagic,
                         io::kSnapshotFormatVersion);
  if (auto st = io::write_file_atomic(path_, header); !st.is_ok()) {
    return st;
  }
  bytes_ = header.size();
  records_ = 0;
  return api::Status::ok();
}

}  // namespace mfti::serving
