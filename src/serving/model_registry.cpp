#include "serving/model_registry.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "io/snapshot.hpp"
#include "serving/registry_journal.hpp"
#include "util/knobs.hpp"

namespace mfti::serving {

namespace fs = std::filesystem;

namespace {

/// File names under the durable root (docs/persistence-format.md).
constexpr const char* kSnapshotFile = "registry.snapshot";
constexpr const char* kJournalFile = "registry.journal";

}  // namespace

RegistryPersistenceOptions RegistryPersistenceOptions::from_env() {
  RegistryPersistenceOptions opts;
  util::env_knob("MFTI_JOURNAL_COMPACT_RECORDS", &opts.compact_min_records);
  util::env_knob("MFTI_JOURNAL_COMPACT_BYTES", &opts.compact_min_bytes);
  return opts;
}

ModelRegistry::ModelRegistry(ModelRegistryOptions opts)
    : opts_(opts), state_(std::make_shared<const State>()) {
  opts_.max_versions = std::max<std::size_t>(1, opts_.max_versions);
}

ModelRegistry::~ModelRegistry() = default;

ModelRegistry::StatePtr ModelRegistry::state() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return state_;
}

void ModelRegistry::swap_state(StatePtr next) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  state_.swap(next);
  // `next` now holds the replaced state; the lock is released before it.
}

// --- mutations --------------------------------------------------------------
//
// Every mutation is one `JournalRecord` and `apply` is the only code that
// changes a `State`: the writers run it through `commit` (clone, apply,
// append write-ahead, swap), and `open` runs it over the journal. Readers
// racing the swap see either the old or the new state in full — never a
// partial mutation.

namespace {

api::Status quarantined_not_found(const std::string& name,
                                  std::uint64_t version) {
  return api::Status::not_found("no quarantined version " +
                                std::to_string(version) + " of '" + name +
                                "'");
}

api::Status model_not_found(const std::string& name) {
  return api::Status::not_found("no model named '" + name + "'");
}

}  // namespace

api::Status ModelRegistry::apply(State& state,
                                 const JournalRecord& record) const {
  const std::string& name = record.name;
  // Publish and promote both make a version live.
  const auto push_live = [&](VersionedModel version) {
    Entry& entry = state.models[name];
    entry.next_version =
        std::max(entry.next_version, version.info.version + 1);
    entry.history.push_back(std::move(version));
    if (entry.history.size() > opts_.max_versions) {
      entry.history.erase(entry.history.begin(),
                          entry.history.end() - opts_.max_versions);
    }
    entry.history.back().info.history_depth = entry.history.size() - 1;
  };
  switch (record.op) {
    case kRecordPublish:
      push_live(record.version);
      break;
    case kRecordQuarantine: {
      // The (possibly history-less) entry tracks next_version so
      // quarantined and live version numbers never collide.
      const std::uint64_t version = record.version.info.version;
      Entry& entry = state.models[name];
      entry.next_version = std::max(entry.next_version, version + 1);
      state.quarantine[name][version] = {record.version, record.verification};
      break;
    }
    case kRecordPromote:
    case kRecordDiscard: {
      const auto by_name = state.quarantine.find(name);
      if (by_name == state.quarantine.end() ||
          !by_name->second.contains(record.subject_version)) {
        return quarantined_not_found(name, record.subject_version);
      }
      auto node = by_name->second.extract(record.subject_version);
      if (by_name->second.empty()) state.quarantine.erase(by_name);
      if (record.op == kRecordPromote) {
        push_live(std::move(node.mapped().model));
      }
      break;
    }
    case kRecordRollback: {
      const auto it = state.models.find(name);
      if (it == state.models.end() || it->second.history.empty()) {
        return model_not_found(name);
      }
      std::vector<VersionedModel>& history = it->second.history;
      if (history.size() < 2) {
        return api::Status::invalid_argument(
            "model '" + name + "' has no previous version to roll back to");
      }
      const std::uint64_t previous = history[history.size() - 2].info.version;
      if (previous != record.rollback_to) {
        return api::Status::invalid_argument(
            "rollback of '" + name + "' would restore v" +
            std::to_string(previous) + ", not the recorded v" +
            std::to_string(record.rollback_to) +
            " (was the registry reopened with a different max_versions?)");
      }
      history.pop_back();
      history.back().info.history_depth = history.size() - 1;
      break;
    }
    case kRecordRemove:
      if (state.models.erase(name) == 0) return model_not_found(name);
      state.quarantine.erase(name);  // removal covers quarantined versions too
      break;
    default:
      return api::Status::invalid_argument("unknown journal record op");
  }
  ++state.generation;
  return api::Status::ok();
}

api::Status ModelRegistry::commit(JournalRecord record) {
  auto next = std::make_shared<State>(*state());
  record.seq = seq_ + 1;
  if (auto status = apply(*next, record); !status.is_ok()) return status;
  if (journal_) {
    if (auto status = journal_->append(record); !status.is_ok()) {
      return status;
    }
    ++journal_records_;
  }
  seq_ = record.seq;
  const State& published = *next;
  swap_state(std::move(next));
  if (journal_) maybe_compact_locked(published);
  return api::Status::ok();
}

PublishResult ModelRegistry::publish(const std::string& name,
                                     ModelSnapshot handle,
                                     std::optional<api::Algorithm> algorithm,
                                     double fit_seconds,
                                     const sampling::SampleSet* held_out) {
  if (!handle) {
    throw std::invalid_argument("ModelRegistry::publish: null handle");
  }
  PublishResult result;
  // Verification runs outside the writer lock: concurrent publishes (e.g.
  // several AsyncFitter workers) verify in parallel and a slow scan never
  // blocks another writer.
  const VerificationPolicy* policy = opts_.verification.get();
  if (policy != nullptr) {
    result.verification = policy->verify(handle->model(), held_out);
    record_verification(result.verification);
    result.quarantined = !result.verification.passed;
  }
  JournalRecord record;
  record.op = result.quarantined ? kRecordQuarantine : kRecordPublish;
  record.name = name;
  ModelInfo& info = record.version.info;
  info.name = name;
  info.order = handle->order();
  info.num_inputs = handle->num_inputs();
  info.num_outputs = handle->num_outputs();
  info.algorithm = algorithm;
  info.fit_seconds = fit_seconds;
  record.version.handle = std::move(handle);
  if (result.quarantined) record.verification = result.verification;

  std::lock_guard<std::mutex> lock(mutex_);
  const StatePtr current = state();
  const auto found = current->models.find(name);
  info.version =
      found == current->models.end() ? 1 : found->second.next_version;
  info.published_at = std::chrono::system_clock::now();
  result.version = info.version;
  if (const auto status = commit(std::move(record)); !status.is_ok()) {
    throw std::runtime_error("ModelRegistry::publish: " +
                             status.to_string());
  }
  return result;
}

PublishResult ModelRegistry::publish(const std::string& name,
                                     const api::FitReport& report,
                                     const sampling::SampleSet* held_out) {
  return publish(name, std::make_shared<const api::ModelHandle>(report),
                 report.algorithm, report.seconds, held_out);
}

api::Expected<ModelInfo> ModelRegistry::promote(const std::string& name,
                                                std::uint64_t version,
                                                bool force) {
  const VerificationPolicy* policy = opts_.verification.get();
  if (!force && policy != nullptr) {
    // Re-verify outside the writer lock against the quarantined handle.
    const StatePtr current = state();
    const auto by_name = current->quarantine.find(name);
    if (by_name == current->quarantine.end() ||
        !by_name->second.contains(version)) {
      return quarantined_not_found(name, version);
    }
    const VerificationReport report =
        policy->verify(by_name->second.at(version).model.handle->model());
    record_verification(report);
    if (!report.passed) {
      return api::Status::numerical_error(
          "promote of '" + name + "' v" + std::to_string(version) +
          " refused: " + report.summary() + " (use force to override)");
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const api::Status status =
      commit({.op = kRecordPromote, .name = name, .subject_version = version});
  if (!status.is_ok()) return status;
  return state()->models.at(name).history.back().info;
}

api::Status ModelRegistry::discard(const std::string& name,
                                   std::uint64_t version) {
  std::lock_guard<std::mutex> lock(mutex_);
  return commit(
      {.op = kRecordDiscard, .name = name, .subject_version = version});
}

api::Expected<std::uint64_t> ModelRegistry::rollback(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  JournalRecord record{.op = kRecordRollback, .name = name};
  const StatePtr current = state();
  if (const auto it = current->models.find(name);
      it != current->models.end() && it->second.history.size() >= 2) {
    const std::vector<VersionedModel>& history = it->second.history;
    record.rollback_to = history[history.size() - 2].info.version;
  }
  const std::uint64_t version = record.rollback_to;
  if (auto status = commit(std::move(record)); !status.is_ok()) {
    return status;
  }
  return version;
}

bool ModelRegistry::remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!state()->models.contains(name)) return false;
  if (const auto status = commit({.op = kRecordRemove, .name = name});
      !status.is_ok()) {
    throw std::runtime_error("ModelRegistry::remove: " + status.to_string());
  }
  return true;
}

// --- queries (one state-pointer copy, then a private snapshot) -------------

ModelSnapshot ModelRegistry::lookup(const std::string& name) const {
  const StatePtr current = state();
  const auto it = current->models.find(name);
  if (it == current->models.end() || it->second.history.empty()) {
    return nullptr;
  }
  return it->second.history.back().handle;
}

api::Expected<VersionedModel> ModelRegistry::acquire(
    const std::string& name) const {
  const StatePtr current = state();
  const auto it = current->models.find(name);
  if (it == current->models.end() || it->second.history.empty()) {
    return model_not_found(name);
  }
  return it->second.history.back();
}

api::Expected<ModelInfo> ModelRegistry::info(const std::string& name) const {
  auto model = acquire(name);
  if (!model) return model.status();
  return model->info;
}

std::vector<ModelInfo> ModelRegistry::list() const {
  const StatePtr current = state();
  std::vector<ModelInfo> out;
  out.reserve(current->models.size());
  for (const auto& [name, entry] : current->models) {
    if (!entry.history.empty()) out.push_back(entry.history.back().info);
  }
  return out;
}

std::vector<VersionedModel> ModelRegistry::live_models() const {
  const StatePtr current = state();
  std::vector<VersionedModel> out;
  out.reserve(current->models.size());
  for (const auto& [name, entry] : current->models) {
    if (!entry.history.empty()) out.push_back(entry.history.back());
  }
  return out;
}

std::size_t ModelRegistry::size() const {
  // Quarantine-only names keep a history-less entry (it tracks
  // next_version) that must not count as a served model.
  const StatePtr current = state();
  std::size_t live = 0;
  for (const auto& [name, entry] : current->models) {
    if (!entry.history.empty()) ++live;
  }
  return live;
}

std::vector<QuarantinedModel> ModelRegistry::quarantined() const {
  const StatePtr current = state();
  std::vector<QuarantinedModel> out;
  for (const auto& [name, versions] : current->quarantine) {
    for (const auto& [version, q] : versions) {
      out.push_back({q.model.info, q.report});
    }
  }
  return out;
}

api::Expected<QuarantinedModel> ModelRegistry::quarantined(
    const std::string& name, std::uint64_t version) const {
  const StatePtr current = state();
  const auto by_name = current->quarantine.find(name);
  if (by_name != current->quarantine.end()) {
    const auto by_version = by_name->second.find(version);
    if (by_version != by_name->second.end()) {
      return QuarantinedModel{by_version->second.model.info,
                              by_version->second.report};
    }
  }
  return quarantined_not_found(name, version);
}

void ModelRegistry::record_verification(const VerificationReport& report) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  if (report.passed) {
    ++verify_pass_;
  } else {
    ++verify_fail_;
  }
  for (const VerificationCheck& check : report.checks) {
    RegistryVerifyStats::Check& stats = check_stats_[check.name];
    stats.name = check.name;
    ++stats.runs;
    stats.seconds_total += check.seconds;
  }
}

RegistryVerifyStats ModelRegistry::verify_stats() const {
  RegistryVerifyStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    out.verify_pass = verify_pass_;
    out.verify_fail = verify_fail_;
    out.checks.reserve(check_stats_.size());
    for (const auto& [name, check] : check_stats_) {
      out.checks.push_back(check);
    }
  }
  const StatePtr current = state();
  for (const auto& [name, versions] : current->quarantine) {
    out.quarantined += versions.size();
  }
  return out;
}

std::uint64_t ModelRegistry::generation() const {
  return state()->generation;
}

std::vector<ModelRegistry::EntryState> ModelRegistry::export_state() const {
  const StatePtr current = state();
  std::vector<EntryState> out;
  out.reserve(current->models.size());
  for (const auto& [name, entry] : current->models) {
    out.push_back({name, entry.next_version, entry.history});
  }
  return out;
}

// --- persistence ------------------------------------------------------------

api::Status ModelRegistry::replay_journal(State& state,
                                          const std::string& journal_path) {
  auto replay = RegistryJournal::replay(journal_path);
  if (!replay) return replay.status();
  for (const JournalRecord& record : replay->records) {
    if (record.seq <= seq_) continue;  // captured by the snapshot already
    if (auto status = apply(state, record); !status.is_ok()) {
      return api::Status::internal("journal replay: " + status.message() +
                                   " (journal/snapshot divergence)");
    }
    seq_ = record.seq;
    ++journal_records_;
  }
  return api::Status::ok();
}

std::string ModelRegistry::serialize_state_locked(const State& state) const {
  io::ByteWriter payload;
  payload.u64(seq_);
  payload.u64(opts_.max_versions);
  payload.u64(state.models.size());
  for (const auto& [name, entry] : state.models) {
    payload.str(name);
    payload.u64(entry.next_version);
    payload.u64(entry.history.size());
    for (const VersionedModel& version : entry.history) {
      write_persisted_version(payload, version);
    }
  }
  // Quarantine block (appended so snapshots from before the verification
  // gate — which simply end here — still load).
  payload.u64(state.quarantine.size());
  for (const auto& [name, versions] : state.quarantine) {
    payload.str(name);
    payload.u64(versions.size());
    for (const auto& [version, q] : versions) {
      write_persisted_version(payload, q.model);
      write_verification_report(payload, q.report);
    }
  }
  return payload.take();
}

api::Status ModelRegistry::compact_locked(const State& state) {
  std::string bytes;
  io::append_file_header(bytes, io::kSnapshotMagic,
                         io::kSnapshotFormatVersion);
  io::append_section(bytes, kSectionRegistry,
                     serialize_state_locked(state));
  if (auto status =
          io::write_file_atomic(dir_ + "/" + kSnapshotFile, bytes);
      !status.is_ok()) {
    return status;
  }
  // Journal records now captured by the snapshot are skipped on replay by
  // their sequence numbers, so a crash before (or during) this reset is
  // harmless — the reset is an optimization, not a correctness step.
  if (auto status = journal_->reset(); !status.is_ok()) return status;
  journal_records_ = 0;
  return api::Status::ok();
}

api::Status ModelRegistry::compact() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!journal_) return api::Status::ok();
  return compact_locked(*state());
}

void ModelRegistry::maybe_compact_locked(const State& state) {
  // Must run only *after* the mutation is swapped in: the snapshot
  // serializes the live state, so compacting between the write-ahead
  // append and the swap would reset away a record the snapshot does not
  // yet contain.
  const bool over_records = persist_.compact_min_records != 0 &&
                            journal_records_ >= persist_.compact_min_records;
  const bool over_bytes = persist_.compact_min_bytes != 0 &&
                          journal_->bytes() >= persist_.compact_min_bytes;
  if (!over_records && !over_bytes) return;
  // Auto-compaction failure is not fatal: the journal still holds every
  // record, so durability is intact — only the replay gets longer.
  if (auto status = compact_locked(state); !status.is_ok()) {
    std::fprintf(stderr, "[mfti.serving] auto-compaction failed: %s\n",
                 status.to_string().c_str());
  }
}

api::Expected<std::unique_ptr<ModelRegistry>> ModelRegistry::open(
    const std::string& dir, ModelRegistryOptions opts,
    RegistryPersistenceOptions persist) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return api::Status::invalid_argument("ModelRegistry::open: cannot "
                                         "create '" +
                                         dir + "': " + ec.message());
  }
  auto registry = std::unique_ptr<ModelRegistry>(new ModelRegistry(opts));
  registry->dir_ = dir;
  registry->persist_ = persist;

  const std::string snapshot_path = dir + "/" + kSnapshotFile;
  const std::string journal_path = dir + "/" + kJournalFile;

  // Rebuild the pre-restart state into one mutable `State`, then swap it
  // in whole — `open` has no concurrent readers, but the invariant "the
  // current state is always complete" is kept anyway.
  auto restored = std::make_shared<State>();

  if (fs::exists(snapshot_path, ec)) {
    auto bytes = io::read_file(snapshot_path);
    if (!bytes) return bytes.status();
    std::size_t offset = 0;
    std::uint32_t version = 0;
    if (auto status = io::check_file_header(*bytes, io::kSnapshotMagic,
                                            io::kSnapshotFormatVersion,
                                            &offset, &version);
        !status.is_ok()) {
      return api::Status(status.code(),
                         "'" + snapshot_path + "': " + status.message());
    }
    io::SectionView section;
    switch (io::parse_section(*bytes, &offset, &section)) {
      case io::SectionParse::Ok:
        break;
      case io::SectionParse::Truncated:
        return api::Status::internal("'" + snapshot_path +
                                     "': truncated registry snapshot "
                                     "(atomic-rename should prevent this; "
                                     "see docs/operations.md)");
      case io::SectionParse::BadCrc:
        return api::Status::internal("'" + snapshot_path +
                                     "': registry snapshot checksum "
                                     "mismatch");
    }
    if (section.tag != kSectionRegistry) {
      return api::Status::internal("'" + snapshot_path +
                                   "': unexpected section tag");
    }
    try {
      io::ByteReader in(section.payload);
      registry->seq_ = in.u64();
      const std::uint64_t stored_max_versions = in.u64();
      if (stored_max_versions != registry->opts_.max_versions) {
        std::fprintf(stderr,
                     "[mfti.serving] '%s' was written with max_versions="
                     "%llu but reopened with %zu; histories re-trim on "
                     "the next publish\n",
                     snapshot_path.c_str(),
                     static_cast<unsigned long long>(stored_max_versions),
                     registry->opts_.max_versions);
      }
      const std::uint64_t num_entries = in.u64();
      for (std::uint64_t e = 0; e < num_entries; ++e) {
        const std::string name = in.str();
        Entry entry;
        entry.next_version = in.u64();
        const std::uint64_t num_versions = in.u64();
        for (std::uint64_t v = 0; v < num_versions; ++v) {
          entry.history.push_back(read_persisted_version(in));
        }
        restored->models[name] = std::move(entry);
      }
      if (in.remaining() > 0) {
        // Quarantine block — absent from pre-verification-gate snapshots.
        // Each version loads as the JQUA record that put it there.
        const std::uint64_t num_quarantined_names = in.u64();
        for (std::uint64_t q = 0; q < num_quarantined_names; ++q) {
          JournalRecord record{.op = kRecordQuarantine, .name = in.str()};
          const std::uint64_t num_versions = in.u64();
          for (std::uint64_t v = 0; v < num_versions; ++v) {
            record.version = read_persisted_version(in);
            record.verification = read_verification_report(in);
            if (record.version.info.name != record.name) {
              return api::Status::internal(
                  "'" + snapshot_path + "': quarantine block names '" +
                  record.version.info.name + "' under key '" + record.name +
                  "'");
            }
            if (auto status = registry->apply(*restored, record);
                !status.is_ok()) {
              return status;
            }
          }
        }
      }
      in.expect_end();
    } catch (const std::exception& e) {
      return api::Status::internal("'" + snapshot_path + "': " + e.what());
    }
  }

  if (auto status = registry->replay_journal(*restored, journal_path);
      !status.is_ok()) {
    return status;
  }
  registry->swap_state(std::move(restored));

  auto journal = RegistryJournal::open(journal_path);
  if (!journal) return journal.status();
  registry->journal_ =
      std::make_unique<RegistryJournal>(std::move(*journal));
  registry->journal_->set_fault_injector(persist.fault_injector);
  return registry;
}

}  // namespace mfti::serving
