/// \file registry_journal.hpp
/// \brief Write-ahead journal for `ModelRegistry`: every mutation
/// (publish / rollback / remove and the quarantine ones) is one
/// `JournalRecord`, appended as a checksummed record and flushed *before*
/// the in-memory swap, so a process restart replays the fleet back to its
/// exact pre-crash state.
///
/// On-disk layout (docs/persistence-format.md is normative): the shared
/// 12-byte header (`MFTIJRNL` + format version) followed by one section
/// per record — `tag | payload length | payload | CRC32(payload)` with
/// tags `JPUB` / `JRBK` / `JREM` / `JQUA` / `JPRO` / `JDSC` (the last
/// three are the verification gate's quarantine / promote / discard
/// mutations). Replay handles a torn trailing record
/// (a crash mid-append) by truncating the file back to the last complete
/// record and warning on stderr — it never crashes and never drops a
/// record that was fully flushed. A checksum mismatch *before* the final
/// record is real corruption and is reported as an error instead.
///
/// The journal stores everything needed to rebuild a registry entry
/// byte-identically: the full model matrices, a reserved word, and the
/// publish-time metadata (`ModelInfo`, including the original publish
/// timestamp). `ModelRegistry` owns what a record does to its state — one
/// `apply` shared by the writers and by replay (model_registry.hpp); this
/// class only frames, appends, and scans.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/status.hpp"
#include "io/snapshot.hpp"
#include "serving/model_registry.hpp"
#include "serving/verification.hpp"

namespace mfti::io {
class FaultInjector;
}  // namespace mfti::io

namespace mfti::serving {

/// Journal record tags (sections of the journal file).
inline constexpr std::uint32_t kRecordPublish =
    io::fourcc('J', 'P', 'U', 'B');
inline constexpr std::uint32_t kRecordRollback =
    io::fourcc('J', 'R', 'B', 'K');
inline constexpr std::uint32_t kRecordRemove =
    io::fourcc('J', 'R', 'E', 'M');
/// A publish refused by the verification policy: the model lands in the
/// quarantine store, never the live map.
inline constexpr std::uint32_t kRecordQuarantine =
    io::fourcc('J', 'Q', 'U', 'A');
/// A quarantined version promoted to live (re-verified or forced).
inline constexpr std::uint32_t kRecordPromote =
    io::fourcc('J', 'P', 'R', 'O');
/// A quarantined version discarded.
inline constexpr std::uint32_t kRecordDiscard =
    io::fourcc('J', 'D', 'S', 'C');

/// Registry-snapshot section tag (the compaction file).
inline constexpr std::uint32_t kSectionRegistry =
    io::fourcc('R', 'E', 'G', 'Y');

/// One registry mutation: what a writer commits and what replay reads back.
struct JournalRecord {
  std::uint32_t op = 0;  ///< one of the kRecord* tags above
  /// Registry mutation sequence number (monotonic across the registry's
  /// whole life). The compaction snapshot stores the sequence it captured,
  /// and replay skips records at or below it — which is what makes the
  /// snapshot-then-reset compaction protocol crash-safe: journal records
  /// surviving a crash between the two steps are simply skipped.
  std::uint64_t seq = 0;
  std::string name;
  /// Publish and quarantine records: the version's handle and metadata.
  VersionedModel version{};
  /// Rollback records carry the version expected live after the pop, so
  /// replay can detect writer/reader divergence (e.g. a different
  /// `max_versions`).
  std::uint64_t rollback_to = 0;
  /// Quarantine records carry the failed verification, persisted so an
  /// operator can inspect *why* after a restart.
  VerificationReport verification{};
  /// Promote / discard records: the quarantined version acted on.
  std::uint64_t subject_version = 0;
};

/// Payload encodings shared by the journal and the registry snapshot.
void write_model_info(io::ByteWriter& out, const ModelInfo& info);
ModelInfo read_model_info(io::ByteReader& in);
/// A persisted version is its `ModelInfo`, the reserved word and
/// `handle->model()`; reading wraps the decoded matrices in a new handle.
void write_persisted_version(io::ByteWriter& out,
                             const VersionedModel& version);
VersionedModel read_persisted_version(io::ByteReader& in);
void write_verification_report(io::ByteWriter& out,
                               const VerificationReport& report);
VerificationReport read_verification_report(io::ByteReader& in);

/// Append-only handle on one journal file.
class RegistryJournal {
 public:
  /// What a replay scan recovered.
  struct Replay {
    std::vector<JournalRecord> records;
    /// True when a torn trailing record was truncated away (already
    /// warned on stderr).
    bool recovered_torn_tail = false;
  };

  /// Scan `path` and decode every complete record. A missing file yields
  /// an empty replay; a torn tail is truncated (see file comment); a
  /// checksum mismatch before the final record is an error.
  static api::Expected<Replay> replay(const std::string& path);

  /// Open `path` for appending, creating it (with a fresh header) when
  /// missing or empty. Call after `replay` — opening does not scan.
  static api::Expected<RegistryJournal> open(const std::string& path);

  /// Serialize `record` and append + flush it. Returns only after the
  /// bytes reached the OS (flushed, not fsynced) — the caller may then
  /// make the mutation visible in memory (write-ahead contract).
  api::Status append(const JournalRecord& record);

  /// Truncate back to a bare header (after a successful compaction).
  api::Status reset();

  /// Install a fault injector consulted before every append (tests).
  /// A refused append fails without committing; an injected short write
  /// leaves a torn prefix on disk, as a crash mid-append would.
  void set_fault_injector(std::shared_ptr<io::FaultInjector> faults) {
    faults_ = std::move(faults);
  }

  std::size_t records_appended() const { return records_; }
  std::size_t bytes() const { return bytes_; }
  const std::string& path() const { return path_; }

 private:
  RegistryJournal(std::string path, std::size_t bytes)
      : path_(std::move(path)), bytes_(bytes) {}

  std::string path_;
  std::size_t records_ = 0;  ///< appended through this handle only
  std::size_t bytes_ = 0;    ///< current file size
  std::shared_ptr<io::FaultInjector> faults_;
};

}  // namespace mfti::serving
