// Tests for the persistence layer (src/io/snapshot + src/serving journal):
// CRC/framing primitives, bitwise system/model snapshot round trips,
// corrupt-file reporting, durable-registry rehydration (names, versions,
// metadata, rollback history byte-identical after reopen), torn-journal
// recovery (truncate-and-warn, never crash), crash-safe compaction
// (sequence-number replay idempotence), lock-free reads during a stalled
// write-ahead append, and the Touchstone fit -> export -> re-read -> refit
// loop.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "io/fault_injector.hpp"
#include "io/snapshot.hpp"
#include "io/touchstone.hpp"
#include "metrics/error.hpp"
#include "sampling/grid.hpp"
#include "sampling/sampler.hpp"
#include "serving/serving.hpp"
#include "statespace/random_system.hpp"

namespace api = mfti::api;
namespace fs = std::filesystem;
namespace io = mfti::io;
namespace la = mfti::la;
namespace metrics = mfti::metrics;
namespace serving = mfti::serving;
namespace sp = mfti::sampling;
namespace ss = mfti::ss;

namespace {

/// Fresh scratch directory, removed on scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("mfti_persist_" + tag + "_" +
               std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

ss::DescriptorSystem make_system(std::size_t order, std::size_t ports,
                                 std::uint64_t seed) {
  la::Rng rng(seed);
  ss::RandomSystemOptions opts;
  opts.order = order;
  opts.num_outputs = ports;
  opts.num_inputs = ports;
  opts.rank_d = ports;
  opts.f_min_hz = 10.0;
  opts.f_max_hz = 1e5;
  return ss::random_stable_mimo(opts, rng);
}

serving::ModelSnapshot make_snapshot(std::size_t order, std::size_t ports,
                                     std::uint64_t seed) {
  return std::make_shared<const api::ModelHandle>(
      make_system(order, ports, seed));
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The byte-identity oracle: every fact the registry exposes must survive
/// a save/reopen cycle exactly, matrices bitwise.
void expect_states_identical(
    const std::vector<serving::ModelRegistry::EntryState>& before,
    const std::vector<serving::ModelRegistry::EntryState>& after) {
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t e = 0; e < before.size(); ++e) {
    SCOPED_TRACE("entry " + before[e].name);
    EXPECT_EQ(before[e].name, after[e].name);
    EXPECT_EQ(before[e].next_version, after[e].next_version);
    ASSERT_EQ(before[e].versions.size(), after[e].versions.size());
    for (std::size_t v = 0; v < before[e].versions.size(); ++v) {
      SCOPED_TRACE("version index " + std::to_string(v));
      const serving::ModelInfo& a = before[e].versions[v].info;
      const serving::ModelInfo& b = after[e].versions[v].info;
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.version, b.version);
      EXPECT_EQ(a.order, b.order);
      EXPECT_EQ(a.num_inputs, b.num_inputs);
      EXPECT_EQ(a.num_outputs, b.num_outputs);
      EXPECT_EQ(a.algorithm, b.algorithm);
      EXPECT_EQ(a.fit_seconds, b.fit_seconds);
      EXPECT_EQ(a.published_at, b.published_at);  // i64 ns round trip
      EXPECT_EQ(a.history_depth, b.history_depth);
      const api::ModelHandle& ha = *before[e].versions[v].handle;
      const api::ModelHandle& hb = *after[e].versions[v].handle;
      EXPECT_TRUE(ha.model() == hb.model());  // bitwise matrix equality
    }
  }
}

/// Thresholds that never auto-compact: the whole history stays in the
/// journal, which is what the torn-tail tests need to manipulate.
serving::RegistryPersistenceOptions no_compaction() {
  serving::RegistryPersistenceOptions persist;
  persist.compact_min_records = 1u << 20;
  persist.compact_min_bytes = 0;
  return persist;
}

}  // namespace

// --- primitives -------------------------------------------------------------

TEST(SnapshotPrimitives, Crc32KnownAnswer) {
  // The canonical CRC-32 check value (IEEE 802.3).
  EXPECT_EQ(io::crc32("123456789", 9), 0xCBF43926u);
  // Seeded continuation must match the one-shot checksum.
  const std::uint32_t head = io::crc32("12345", 5);
  EXPECT_EQ(io::crc32("6789", 4, head), 0xCBF43926u);
}

TEST(SnapshotPrimitives, WriterReaderRoundTrip) {
  io::ByteWriter out;
  out.u8(0xAB);
  out.u32(0xDEADBEEFu);
  out.u64(0x0123456789ABCDEFull);
  out.i64(-42);
  out.f64(-0.0);
  out.f64(std::numeric_limits<double>::quiet_NaN());
  out.str("registry");
  io::ByteReader in(out.bytes());
  EXPECT_EQ(in.u8(), 0xAB);
  EXPECT_EQ(in.u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.i64(), -42);
  const double neg_zero = in.f64();
  EXPECT_TRUE(std::signbit(neg_zero));  // bit pattern, not value
  EXPECT_TRUE(std::isnan(in.f64()));
  EXPECT_EQ(in.str(), "registry");
  EXPECT_TRUE(in.at_end());
  EXPECT_NO_THROW(in.expect_end());
  EXPECT_THROW(in.u8(), io::SnapshotFormatError);  // past the end
}

TEST(SnapshotPrimitives, SectionFramingDetectsTornAndCorrupt) {
  std::string file;
  io::append_section(file, io::kSectionSystem, "payload bytes");
  // Intact: parses and advances.
  std::size_t offset = 0;
  io::SectionView view;
  ASSERT_EQ(io::parse_section(file, &offset, &view), io::SectionParse::Ok);
  EXPECT_EQ(view.tag, io::kSectionSystem);
  EXPECT_EQ(view.payload, "payload bytes");
  EXPECT_EQ(offset, file.size());
  // Torn: any prefix shorter than the full section, offset untouched.
  offset = 0;
  const std::string torn = file.substr(0, file.size() - 3);
  EXPECT_EQ(io::parse_section(torn, &offset, &view),
            io::SectionParse::Truncated);
  EXPECT_EQ(offset, 0u);
  // Corrupt: one payload byte flipped fails the checksum.
  std::string corrupt = file;
  corrupt[14] ^= 0x01;
  offset = 0;
  EXPECT_EQ(io::parse_section(corrupt, &offset, &view),
            io::SectionParse::BadCrc);
  EXPECT_EQ(offset, 0u);
}

// --- model snapshots --------------------------------------------------------

TEST(ModelSnapshot, SystemRoundTripsBitwise) {
  TempDir dir("system");
  const ss::DescriptorSystem sys = make_system(8, 2, 11);
  const std::string path = (dir.path() / "sys.mfti").string();
  ASSERT_TRUE(io::save_system_snapshot(path, sys).is_ok());
  const auto back = io::load_system_snapshot(path);
  ASSERT_TRUE(back) << back.status().to_string();
  EXPECT_TRUE(*back == sys);
}

TEST(ModelSnapshot, HandleRoundTripServesIdentically) {
  TempDir dir("handle");
  const api::ModelHandle handle(make_system(10, 2, 12));
  const std::string path = (dir.path() / "model.mfti").string();
  ASSERT_TRUE(io::save_model_snapshot(path, handle).is_ok());
  // The MODL payload opens with the reserved word, written as the old
  // cache-capacity default so an older reader behaves as before.
  const std::string bytes = read_bytes(path);
  std::size_t offset = 0;
  std::uint32_t version = 0;
  ASSERT_TRUE(io::check_file_header(bytes, io::kSnapshotMagic,
                                    io::kSnapshotFormatVersion, &offset,
                                    &version)
                  .is_ok());
  io::SectionView section;
  ASSERT_EQ(io::parse_section(bytes, &offset, &section),
            io::SectionParse::Ok);
  io::ByteReader payload(section.payload);
  EXPECT_EQ(payload.u64(), io::kReservedModelWord);
  EXPECT_EQ(io::kReservedModelWord, 128u);
  const auto back = io::load_model_snapshot(path);
  ASSERT_TRUE(back) << back.status().to_string();
  EXPECT_TRUE((*back)->model() == handle.model());
  // A reloaded model must serve answers bitwise identical to the saved
  // one — same matrices, same evaluation path.
  for (const double f : sp::log_grid(10.0, 1e5, 9)) {
    const la::CMat a = handle.response_at(f);
    const la::CMat b = (*back)->response_at(f);
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t j = 0; j < a.cols(); ++j) {
        EXPECT_EQ(a(i, j), b(i, j));
      }
    }
  }
}

// Readers ignore the reserved word: a file whose word holds another
// value (an older writer's non-default cache capacity) loads the same
// model.
TEST(ModelSnapshot, ReservedWordIsIgnoredOnRead) {
  TempDir dir("reserved");
  const ss::DescriptorSystem sys = make_system(6, 2, 13);
  io::ByteWriter payload;
  payload.u64(7);
  io::write_system(payload, sys);
  std::string bytes;
  io::append_file_header(bytes, io::kSnapshotMagic,
                         io::kSnapshotFormatVersion);
  io::append_section(bytes, io::kSectionModel, payload.bytes());
  const fs::path path = dir.path() / "old.mfti";
  write_bytes(path, bytes);
  const auto back = io::load_model_snapshot(path.string());
  ASSERT_TRUE(back) << back.status().to_string();
  EXPECT_TRUE((*back)->model() == sys);

  // Registry versions carry the same word between model info and model.
  io::ByteWriter out;
  serving::write_persisted_version(
      out, {std::make_shared<const api::ModelHandle>(sys), {}});
  io::ByteReader in(out.bytes());
  serving::read_model_info(in);
  EXPECT_EQ(in.u64(), io::kReservedModelWord);
}

TEST(ModelSnapshot, CorruptFileIsAnErrorNotACrash) {
  TempDir dir("corrupt");
  const std::string path = (dir.path() / "sys.mfti").string();
  ASSERT_TRUE(
      io::save_system_snapshot(path, make_system(6, 2, 13)).is_ok());
  std::string bytes = read_bytes(path);
  bytes[bytes.size() / 2] ^= 0x40;  // flip one payload bit
  write_bytes(path, bytes);
  const auto back = io::load_system_snapshot(path);
  ASSERT_FALSE(back);
  EXPECT_EQ(back.status().code(), api::StatusCode::Internal);
}

TEST(ModelSnapshot, NewerFormatVersionIsRejected) {
  TempDir dir("version");
  const std::string path = (dir.path() / "sys.mfti").string();
  ASSERT_TRUE(
      io::save_system_snapshot(path, make_system(6, 2, 14)).is_ok());
  std::string bytes = read_bytes(path);
  bytes[8] = static_cast<char>(io::kSnapshotFormatVersion + 1);  // LE u32
  write_bytes(path, bytes);
  const auto back = io::load_system_snapshot(path);
  ASSERT_FALSE(back);
  EXPECT_EQ(back.status().code(), api::StatusCode::InvalidArgument);
}

// --- durable registry -------------------------------------------------------

TEST(DurableRegistry, ReopenRestoresStateByteIdentically) {
  TempDir dir("reopen");
  std::vector<serving::ModelRegistry::EntryState> before;
  {
    serving::ModelRegistryOptions opts;
    opts.max_versions = 3;
    auto registry =
        serving::ModelRegistry::open(dir.str(), opts, no_compaction());
    ASSERT_TRUE(registry) << registry.status().to_string();
    serving::ModelRegistry& reg = **registry;
    EXPECT_TRUE(reg.durable());
    // A history that exercises every journal op: multiple versions,
    // a trim past max_versions, a rollback, and a removed model.
    reg.publish("pdn", make_snapshot(8, 2, 21), api::Algorithm::Mfti, 0.25);
    reg.publish("pdn", make_snapshot(10, 2, 22), api::Algorithm::Vfti,
                1.5);
    reg.publish("pdn", make_snapshot(12, 2, 23),
                api::Algorithm::RecursiveMfti, 2.75);
    reg.publish("pdn", make_snapshot(6, 2, 24));  // trims v1 out
    ASSERT_TRUE(reg.rollback("pdn"));             // v3 live again
    reg.publish("pkg", make_snapshot(4, 2, 25));
    reg.publish("doomed", make_snapshot(4, 2, 26));
    EXPECT_TRUE(reg.remove("doomed"));
    before = reg.export_state();
  }  // "crash": the process state is gone, only the files remain
  serving::ModelRegistryOptions opts;
  opts.max_versions = 3;
  auto reopened =
      serving::ModelRegistry::open(dir.str(), opts, no_compaction());
  ASSERT_TRUE(reopened) << reopened.status().to_string();
  expect_states_identical(before, (*reopened)->export_state());
  // And the rehydrated fleet keeps serving: the mutations continue the
  // version sequence instead of restarting it.
  EXPECT_EQ((*reopened)->publish("pdn", make_snapshot(8, 2, 27)), 5u);
}

TEST(DurableRegistry, TornFinalRecordIsTruncatedNotFatal) {
  TempDir dir("torn");
  std::vector<serving::ModelRegistry::EntryState> before_torn;
  {
    auto registry =
        serving::ModelRegistry::open(dir.str(), {}, no_compaction());
    ASSERT_TRUE(registry) << registry.status().to_string();
    (*registry)->publish("pdn", make_snapshot(8, 2, 31));
    (*registry)->publish("pkg", make_snapshot(6, 2, 32));
    before_torn = (*registry)->export_state();
    // The record torn by the "crash":
    (*registry)->publish("torn", make_snapshot(4, 2, 33));
  }
  // Chop the tail off the final record — a crash mid-append.
  const fs::path journal = dir.path() / "registry.journal";
  std::string bytes = read_bytes(journal);
  write_bytes(journal, bytes.substr(0, bytes.size() - 25));
  auto reopened =
      serving::ModelRegistry::open(dir.str(), {}, no_compaction());
  ASSERT_TRUE(reopened) << reopened.status().to_string();
  // The incomplete publish is gone; everything flushed before it survives.
  expect_states_identical(before_torn, (*reopened)->export_state());
  EXPECT_EQ((*reopened)->lookup("torn"), nullptr);
  // The file was truncated back to the last complete record, so a second
  // reopen sees a clean journal.
  auto again =
      serving::ModelRegistry::open(dir.str(), {}, no_compaction());
  ASSERT_TRUE(again) << again.status().to_string();
  expect_states_identical(before_torn, (*again)->export_state());
}

TEST(DurableRegistry, MidJournalCorruptionIsAnError) {
  TempDir dir("midcorrupt");
  {
    auto registry =
        serving::ModelRegistry::open(dir.str(), {}, no_compaction());
    ASSERT_TRUE(registry) << registry.status().to_string();
    (*registry)->publish("pdn", make_snapshot(8, 2, 41));
    (*registry)->publish("pkg", make_snapshot(6, 2, 42));
  }
  // Flip a bit inside the FIRST record: complete records follow, so this
  // is real corruption, not a torn write — recovery must refuse.
  const fs::path journal = dir.path() / "registry.journal";
  std::string bytes = read_bytes(journal);
  bytes[40] ^= 0x01;
  write_bytes(journal, bytes);
  auto reopened =
      serving::ModelRegistry::open(dir.str(), {}, no_compaction());
  ASSERT_FALSE(reopened);
  EXPECT_EQ(reopened.status().code(), api::StatusCode::Internal);
}

TEST(DurableRegistry, CompactionPreservesStateAndResetsJournal) {
  TempDir dir("compact");
  std::vector<serving::ModelRegistry::EntryState> before;
  {
    auto registry =
        serving::ModelRegistry::open(dir.str(), {}, no_compaction());
    ASSERT_TRUE(registry) << registry.status().to_string();
    (*registry)->publish("pdn", make_snapshot(8, 2, 51));
    (*registry)->publish("pdn", make_snapshot(10, 2, 52));
    (*registry)->publish("pkg", make_snapshot(6, 2, 53));
    ASSERT_TRUE((*registry)->compact().is_ok());
    before = (*registry)->export_state();
  }
  // After compaction the journal is a bare 12-byte header; the snapshot
  // alone carries the fleet.
  EXPECT_EQ(fs::file_size(dir.path() / "registry.journal"), 12u);
  EXPECT_TRUE(fs::exists(dir.path() / "registry.snapshot"));
  auto reopened =
      serving::ModelRegistry::open(dir.str(), {}, no_compaction());
  ASSERT_TRUE(reopened) << reopened.status().to_string();
  expect_states_identical(before, (*reopened)->export_state());
}

TEST(DurableRegistry, ReplaySkipsRecordsAlreadyInSnapshot) {
  // A crash *between* compaction's two steps (snapshot written, journal
  // not yet reset) leaves records in the journal that the snapshot
  // already captured. Sequence numbers make the replay idempotent.
  TempDir dir("crashsafe");
  std::vector<serving::ModelRegistry::EntryState> before;
  const fs::path journal = dir.path() / "registry.journal";
  std::string stale_journal;
  {
    auto registry =
        serving::ModelRegistry::open(dir.str(), {}, no_compaction());
    ASSERT_TRUE(registry) << registry.status().to_string();
    (*registry)->publish("pdn", make_snapshot(8, 2, 61));
    (*registry)->publish("pkg", make_snapshot(6, 2, 62));
    stale_journal = read_bytes(journal);  // both records, seq 1 and 2
    ASSERT_TRUE((*registry)->compact().is_ok());
    before = (*registry)->export_state();
  }
  write_bytes(journal, stale_journal);  // "the reset never happened"
  auto reopened =
      serving::ModelRegistry::open(dir.str(), {}, no_compaction());
  ASSERT_TRUE(reopened) << reopened.status().to_string();
  // No double-applied publishes: versions and history are unchanged.
  expect_states_identical(before, (*reopened)->export_state());
  EXPECT_EQ((*reopened)->publish("pdn", make_snapshot(8, 2, 63)), 2u);
}

TEST(DurableRegistry, FormatVersion1FilesStillOpen) {
  // Backward compatibility pin for the version-1 -> version-2 bump
  // (version 2 added the registry quarantine block and the JQUA/JPRO/
  // JDSC journal records; see docs/persistence-format.md). A version-1
  // file pair is synthesized by downgrading freshly written files: the
  // v2 additions are purely trailing for a quarantine-free fleet, so
  // stripping the empty quarantine block and re-stamping the headers
  // reproduces the v1 bytes exactly.
  TempDir dir("v1compat");
  std::vector<serving::ModelRegistry::EntryState> before;
  {
    auto registry =
        serving::ModelRegistry::open(dir.str(), {}, no_compaction());
    ASSERT_TRUE(registry) << registry.status().to_string();
    (*registry)->publish("pdn", make_snapshot(8, 2, 71));
    (*registry)->publish("pdn", make_snapshot(8, 2, 72));
    (*registry)->publish("pkg", make_snapshot(6, 2, 73));
    ASSERT_TRUE((*registry)->compact().is_ok());
    // One post-compaction mutation so the journal holds a JPUB record
    // (its encoding is unchanged between the versions).
    (*registry)->publish("pkg", make_snapshot(6, 2, 74));
    before = (*registry)->export_state();
  }

  // Downgrade the snapshot: drop the trailing `u64 quarantine_count`
  // (zero — no quarantine) from the REGY payload and re-frame.
  const fs::path snap_path = dir.path() / "registry.snapshot";
  const std::string snap = read_bytes(snap_path);
  ASSERT_GE(snap.size(), 12u + 12u + 8u + 4u);
  io::ByteReader frame(std::string_view(snap).substr(16, 8));
  const std::uint64_t payload_len = frame.u64();
  const std::string payload = snap.substr(24, payload_len);
  ASSERT_EQ(payload.substr(payload.size() - 8),
            std::string(8, '\0'));  // empty quarantine block
  std::string v1;
  io::append_file_header(v1, io::kSnapshotMagic, 1);
  io::append_section(
      v1, io::fourcc('R', 'E', 'G', 'Y'),
      std::string_view(payload).substr(0, payload.size() - 8));
  write_bytes(snap_path, v1);

  // Downgrade the journal: only the header version differs for a
  // journal holding pre-v2 record types.
  const fs::path journal_path = dir.path() / "registry.journal";
  std::string journal = read_bytes(journal_path);
  ASSERT_GE(journal.size(), 12u);
  journal[8] = '\x01';  // LE u32 version field: 2 -> 1
  write_bytes(journal_path, journal);

  auto reopened =
      serving::ModelRegistry::open(dir.str(), {}, no_compaction());
  ASSERT_TRUE(reopened) << reopened.status().to_string();
  expect_states_identical(before, (*reopened)->export_state());
  EXPECT_TRUE((*reopened)->quarantined().empty());
  // The reopened registry writes version-2 files from here on.
  ASSERT_TRUE((*reopened)->compact().is_ok());
  EXPECT_EQ(read_bytes(snap_path)[8], '\x02');
}

TEST(DurableRegistry, AutoCompactionAtRecordThreshold) {
  TempDir dir("autocompact");
  serving::RegistryPersistenceOptions persist;
  persist.compact_min_records = 1;  // compact after every mutation
  persist.compact_min_bytes = 0;
  std::vector<serving::ModelRegistry::EntryState> before;
  {
    auto registry = serving::ModelRegistry::open(dir.str(), {}, persist);
    ASSERT_TRUE(registry) << registry.status().to_string();
    (*registry)->publish("pdn", make_snapshot(8, 2, 71));
    (*registry)->publish("pdn", make_snapshot(10, 2, 72));
    ASSERT_TRUE((*registry)->rollback("pdn"));
    before = (*registry)->export_state();
    // Every mutation triggered a compaction, so the journal never grows.
    EXPECT_EQ(fs::file_size(dir.path() / "registry.journal"), 12u);
  }
  auto reopened = serving::ModelRegistry::open(dir.str(), {}, persist);
  ASSERT_TRUE(reopened) << reopened.status().to_string();
  expect_states_identical(before, (*reopened)->export_state());
}

TEST(DurableRegistry, WarmRestartServesBitwiseIdenticalAnswers) {
  TempDir dir("warm");
  std::vector<la::CMat> cold_answers;
  const auto freqs = sp::log_grid(10.0, 1e5, 7);
  {
    auto registry =
        serving::ModelRegistry::open(dir.str(), {}, no_compaction());
    ASSERT_TRUE(registry) << registry.status().to_string();
    (*registry)->publish("pdn", make_snapshot(12, 2, 81));
    cold_answers = (*registry)->lookup("pdn")->sweep(freqs);
  }
  auto reopened =
      serving::ModelRegistry::open(dir.str(), {}, no_compaction());
  ASSERT_TRUE(reopened) << reopened.status().to_string();
  const auto warm_answers = (*reopened)->lookup("pdn")->sweep(freqs);
  ASSERT_EQ(warm_answers.size(), cold_answers.size());
  for (std::size_t k = 0; k < freqs.size(); ++k) {
    for (std::size_t i = 0; i < cold_answers[k].rows(); ++i) {
      for (std::size_t j = 0; j < cold_answers[k].cols(); ++j) {
        EXPECT_EQ(cold_answers[k](i, j), warm_answers[k](i, j));
      }
    }
  }
}

// A durable publish's slowest step is the write-ahead journal append. The
// registry's RCU read path must not care: while one publish is stalled
// inside its append (holding the writer mutex), every reader keeps being
// served — from the *previous* state, since the swap only happens after
// the record is durable.
TEST(DurableRegistry, ReadersNeverBlockOnSlowJournalAppend) {
  TempDir dir("rcu_readers");
  std::atomic<bool> armed{false};
  std::atomic<bool> signalled{false};
  std::promise<void> entered;
  std::promise<void> release;
  auto release_future = release.get_future().share();
  serving::RegistryPersistenceOptions persist;
  persist.fault_injector = std::make_shared<io::FaultInjector>();
  persist.fault_injector->set_before_write([&] {
    if (!armed.load()) return;
    if (!signalled.exchange(true)) entered.set_value();
    release_future.wait();
  });
  auto opened = serving::ModelRegistry::open(dir.str(), {}, persist);
  ASSERT_TRUE(opened) << opened.status().to_string();
  serving::ModelRegistry& registry = **opened;
  registry.publish("m", make_snapshot(8, 2, 91));  // unstalled (not armed)

  armed.store(true);
  std::thread publisher([&] {
    registry.publish("m", make_snapshot(10, 2, 92));
  });
  entered.get_future().wait();  // publisher holds the writer mutex now

  auto reads = std::async(std::launch::async, [&] {
    for (int i = 0; i < 1000; ++i) {
      const auto model = registry.acquire("m");
      if (!model || model->info.version != 1) return false;
      if (model->handle->order() != 8) return false;
      if (registry.lookup("m") == nullptr) return false;
      if (registry.list().size() != 1 || registry.size() != 1) return false;
      if (!registry.info("m")) return false;
    }
    return true;
  });
  // Mutex-taking readers would sit behind the stalled publish until the
  // test times out; lock-free ones finish (far) within the bound.
  ASSERT_EQ(reads.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "a reader blocked behind the stalled publish";
  EXPECT_TRUE(reads.get());
  EXPECT_EQ(registry.info("m")->version, 1u);  // swap is after the append

  release.set_value();
  publisher.join();
  EXPECT_EQ(registry.info("m")->version, 2u);
  EXPECT_EQ(registry.lookup("m")->order(), 10u);
}

// --- fault injection --------------------------------------------------------

// A refused write-ahead append must leave the registry *observably*
// unchanged: the mutation throws (or errors), no version is consumed, and
// every reader keeps seeing the pre-fault state — on disk and in memory.
TEST(FaultInjection, RefusedAppendLeavesRegistryUnchanged) {
  TempDir dir("fail_once");
  serving::RegistryPersistenceOptions persist = no_compaction();
  persist.fault_injector = std::make_shared<io::FaultInjector>();
  auto opened = serving::ModelRegistry::open(dir.str(), {}, persist);
  ASSERT_TRUE(opened) << opened.status().to_string();
  serving::ModelRegistry& registry = **opened;
  registry.publish("m", make_snapshot(8, 2, 101));
  const auto before = registry.export_state();
  const auto generation = registry.generation();

  persist.fault_injector->arm(io::FaultInjector::Mode::FailOnce);
  EXPECT_THROW(registry.publish("m", make_snapshot(10, 2, 102)),
               std::runtime_error);
  EXPECT_EQ(persist.fault_injector->fired(), 1u);
  expect_states_identical(before, registry.export_state());
  EXPECT_EQ(registry.generation(), generation);
  EXPECT_EQ(registry.info("m")->version, 1u);
  EXPECT_EQ(registry.lookup("m")->order(), 8u);

  // FailOnce auto-disarms: the retry consumes the version the refused
  // publish never got.
  EXPECT_EQ(registry.publish("m", make_snapshot(10, 2, 102)), 2u);
  EXPECT_EQ(registry.info("m")->version, 2u);

  // A refused rollback reports instead of throwing, and changes nothing.
  persist.fault_injector->arm(io::FaultInjector::Mode::FailOnce);
  const auto rolled = registry.rollback("m");
  ASSERT_FALSE(rolled);
  EXPECT_EQ(rolled.status().code(), api::StatusCode::Internal);
  EXPECT_EQ(registry.info("m")->version, 2u);

  // Durability: the fault never reached the file, so a reopen agrees.
  const auto after = registry.export_state();
  auto reopened =
      serving::ModelRegistry::open(dir.str(), {}, no_compaction());
  ASSERT_TRUE(reopened) << reopened.status().to_string();
  expect_states_identical(after, (*reopened)->export_state());
}

// An injected short write models a crash mid-append: the torn prefix
// stays on disk (the failed publish never went live) and the next open
// truncates it away, recovering everything flushed before it.
TEST(FaultInjection, ShortWriteTornPrefixRecoversOnReopen) {
  TempDir dir("short_write");
  std::vector<serving::ModelRegistry::EntryState> before;
  const fs::path journal = dir.path() / "registry.journal";
  std::size_t clean_size = 0;
  {
    serving::RegistryPersistenceOptions persist = no_compaction();
    persist.fault_injector = std::make_shared<io::FaultInjector>();
    auto opened = serving::ModelRegistry::open(dir.str(), {}, persist);
    ASSERT_TRUE(opened) << opened.status().to_string();
    serving::ModelRegistry& registry = **opened;
    registry.publish("m", make_snapshot(8, 2, 111));
    registry.publish("n", make_snapshot(6, 2, 112));
    before = registry.export_state();
    clean_size = static_cast<std::size_t>(fs::file_size(journal));

    persist.fault_injector->arm(io::FaultInjector::Mode::ShortWrite);
    EXPECT_THROW(registry.publish("m", make_snapshot(10, 2, 113)),
                 std::runtime_error);
    expect_states_identical(before, registry.export_state());
  }  // "crash": the torn prefix is still in the file
  EXPECT_GT(fs::file_size(journal), clean_size);
  auto reopened =
      serving::ModelRegistry::open(dir.str(), {}, no_compaction());
  ASSERT_TRUE(reopened) << reopened.status().to_string();
  expect_states_identical(before, (*reopened)->export_state());
  // Recovery truncated the torn bytes, so the journal is clean again and
  // the fleet keeps mutating normally.
  EXPECT_EQ(fs::file_size(journal), clean_size);
  EXPECT_EQ((*reopened)->publish("m", make_snapshot(10, 2, 113)), 2u);
}

// ENOSPC persists until space is freed: every mutation is refused (and
// harmless), then all succeed after disarm.
TEST(FaultInjection, NoSpaceRefusesEveryMutationUntilDisarmed) {
  TempDir dir("enospc");
  serving::RegistryPersistenceOptions persist = no_compaction();
  persist.fault_injector = std::make_shared<io::FaultInjector>();
  auto opened = serving::ModelRegistry::open(dir.str(), {}, persist);
  ASSERT_TRUE(opened) << opened.status().to_string();
  serving::ModelRegistry& registry = **opened;
  registry.publish("m", make_snapshot(8, 2, 121));
  const auto before = registry.export_state();

  persist.fault_injector->arm(io::FaultInjector::Mode::NoSpace);
  EXPECT_THROW(registry.publish("m", make_snapshot(10, 2, 122)),
               std::runtime_error);
  EXPECT_THROW(registry.publish("x", make_snapshot(4, 2, 123)),
               std::runtime_error);
  EXPECT_THROW(registry.remove("m"), std::runtime_error);
  EXPECT_GE(persist.fault_injector->fired(), 3u);
  expect_states_identical(before, registry.export_state());

  persist.fault_injector->disarm();
  EXPECT_EQ(registry.publish("m", make_snapshot(10, 2, 122)), 2u);
  EXPECT_TRUE(registry.remove("m"));
  auto reopened =
      serving::ModelRegistry::open(dir.str(), {}, no_compaction());
  ASSERT_TRUE(reopened) << reopened.status().to_string();
  expect_states_identical(registry.export_state(),
                          (*reopened)->export_state());
}

// --- Touchstone export ------------------------------------------------------

TEST(TouchstoneExport, FitExportRereadRefitWithinTolerance) {
  TempDir dir("touchstone");
  // Fit a model to samples of a known system...
  const ss::DescriptorSystem truth = make_system(10, 2, 91);
  const auto freqs = sp::log_grid(10.0, 1e5, 40);
  const sp::SampleSet data = sp::sample_system(truth, freqs);
  const auto report = api::Fitter().fit(data);
  ASSERT_TRUE(report) << report.status().to_string();
  // ...export the fitted model through the Touchstone writer...
  const std::string path = (dir.path() / "model.s2p").string();
  io::write_touchstone_model(path, report->model, freqs);
  // ...re-read it and refit: the round-tripped model must still match the
  // original samples (text precision, not bitwise — hence the tolerance).
  const io::TouchstoneData reread = io::read_touchstone_file(path);
  ASSERT_EQ(reread.samples.size(), freqs.size());
  const auto refit = api::Fitter().fit(reread.samples);
  ASSERT_TRUE(refit) << refit.status().to_string();
  EXPECT_LT(metrics::model_error(refit->model, data), 1e-6);
}
