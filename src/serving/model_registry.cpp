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

ModelRegistry::ModelRegistry(ModelRegistryOptions opts) : opts_(opts) {
  opts_.max_versions = std::max<std::size_t>(1, opts_.max_versions);
  state_.store(std::make_shared<const State>(), std::memory_order_release);
}

ModelRegistry::~ModelRegistry() = default;

// --- mutations --------------------------------------------------------------
//
// Every mutation is the same copy-and-swap: under `mutex_`, clone the
// current state (shallow — histories copy `shared_ptr`s, not models),
// journal the record write-ahead (durable registries; a failure discards
// the clone, so the registry is observably unchanged), apply the mutation
// to the clone, release-store the clone as the new state, then consider
// compaction. Readers racing the store see either the old or the new
// state in full — never a partial mutation.

std::uint64_t ModelRegistry::publish_locked(
    State& next, const std::string& name, ModelSnapshot handle,
    std::optional<api::Algorithm> algorithm, double fit_seconds) {
  const auto found = next.models.find(name);
  Version version;
  version.info.name = name;
  version.info.version =
      found == next.models.end() ? 1 : found->second.next_version;
  version.info.order = handle->order();
  version.info.num_inputs = handle->num_inputs();
  version.info.num_outputs = handle->num_outputs();
  version.info.algorithm = algorithm;
  version.info.fit_seconds = fit_seconds;
  version.info.published_at = std::chrono::system_clock::now();
  version.handle = std::move(handle);
  if (journal_) {
    JournalRecord record;
    record.op = kRecordPublish;
    record.seq = seq_ + 1;
    record.name = name;
    record.version =
        PersistedVersion{version.info, version.handle->model()};
    if (const auto status = journal_locked(record); !status.is_ok()) {
      throw std::runtime_error("ModelRegistry::publish: " +
                               status.to_string());
    }
  }
  ++seq_;
  ++next.generation;
  Entry& entry = next.models[name];
  entry.next_version = version.info.version + 1;
  entry.history.push_back(std::move(version));
  if (entry.history.size() > opts_.max_versions) {
    entry.history.erase(entry.history.begin(),
                        entry.history.end() - opts_.max_versions);
  }
  entry.history.back().info.history_depth = entry.history.size() - 1;
  return entry.history.back().info.version;
}

std::uint64_t ModelRegistry::quarantine_locked(
    State& next, const std::string& name, ModelSnapshot handle,
    std::optional<api::Algorithm> algorithm, double fit_seconds,
    const VerificationReport& report) {
  const auto found = next.models.find(name);
  QVersion q;
  q.info.name = name;
  q.info.version =
      found == next.models.end() ? 1 : found->second.next_version;
  q.info.order = handle->order();
  q.info.num_inputs = handle->num_inputs();
  q.info.num_outputs = handle->num_outputs();
  q.info.algorithm = algorithm;
  q.info.fit_seconds = fit_seconds;
  q.info.published_at = std::chrono::system_clock::now();
  q.handle = std::move(handle);
  q.report = report;
  if (journal_) {
    JournalRecord record;
    record.op = kRecordQuarantine;
    record.seq = seq_ + 1;
    record.name = name;
    record.version = PersistedVersion{q.info, q.handle->model()};
    record.verification = report;
    if (const auto status = journal_locked(record); !status.is_ok()) {
      throw std::runtime_error("ModelRegistry::publish: " +
                               status.to_string());
    }
  }
  ++seq_;
  ++next.generation;
  // The (possibly history-less) entry tracks next_version so quarantined
  // and live version numbers never collide.
  Entry& entry = next.models[name];
  entry.next_version = std::max(entry.next_version, q.info.version + 1);
  const std::uint64_t version = q.info.version;
  next.quarantine[name][version] = std::move(q);
  return version;
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
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto next =
      std::make_shared<State>(*state_.load(std::memory_order_relaxed));
  if (policy != nullptr && !result.verification.passed) {
    result.quarantined = true;
    result.version = quarantine_locked(*next, name, std::move(handle),
                                       algorithm, fit_seconds,
                                       result.verification);
  } else {
    result.version = publish_locked(*next, name, std::move(handle),
                                    algorithm, fit_seconds);
  }
  const State& published = *next;
  state_.store(std::move(next), std::memory_order_release);
  if (journal_) maybe_compact_locked(published);
  return result;
}

PublishResult ModelRegistry::publish(const std::string& name,
                                     const api::FitReport& report,
                                     const sampling::SampleSet* held_out) {
  return publish(name, std::make_shared<const api::ModelHandle>(report),
                 report.algorithm, report.seconds, held_out);
}

bool ModelRegistry::apply_promote(State& state, const std::string& name,
                                  std::uint64_t version) {
  const auto by_name = state.quarantine.find(name);
  if (by_name == state.quarantine.end()) return false;
  const auto by_version = by_name->second.find(version);
  if (by_version == by_name->second.end()) return false;
  QVersion q = std::move(by_version->second);
  by_name->second.erase(by_version);
  if (by_name->second.empty()) state.quarantine.erase(by_name);
  Entry& entry = state.models[name];
  entry.next_version = std::max(entry.next_version, q.info.version + 1);
  Version promoted;
  promoted.handle = std::move(q.handle);
  promoted.info = std::move(q.info);
  entry.history.push_back(std::move(promoted));
  if (entry.history.size() > opts_.max_versions) {
    entry.history.erase(entry.history.begin(),
                        entry.history.end() - opts_.max_versions);
  }
  entry.history.back().info.history_depth = entry.history.size() - 1;
  ++state.generation;
  return true;
}

api::Expected<ModelInfo> ModelRegistry::promote(const std::string& name,
                                                std::uint64_t version,
                                                bool force) {
  const VerificationPolicy* policy = opts_.verification.get();
  if (!force && policy != nullptr) {
    // Re-verify outside the writer lock against the quarantined handle.
    const StatePtr current = state();
    const auto by_name = current->quarantine.find(name);
    if (by_name == current->quarantine.end()) {
      return api::Status::not_found(
          "no quarantined version " + std::to_string(version) + " of '" +
          name + "'");
    }
    const auto by_version = by_name->second.find(version);
    if (by_version == by_name->second.end()) {
      return api::Status::not_found(
          "no quarantined version " + std::to_string(version) + " of '" +
          name + "'");
    }
    const VerificationReport report =
        policy->verify(by_version->second.handle->model());
    record_verification(report);
    if (!report.passed) {
      return api::Status::numerical_error(
          "promote of '" + name + "' v" + std::to_string(version) +
          " refused: " + report.summary() + " (use force to override)");
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto next =
      std::make_shared<State>(*state_.load(std::memory_order_relaxed));
  const auto by_name = next->quarantine.find(name);
  if (by_name == next->quarantine.end() ||
      by_name->second.find(version) == by_name->second.end()) {
    return api::Status::not_found(
        "no quarantined version " + std::to_string(version) + " of '" +
        name + "'");
  }
  if (journal_) {
    JournalRecord record;
    record.op = kRecordPromote;
    record.seq = seq_ + 1;
    record.name = name;
    record.subject_version = version;
    if (const auto status = journal_locked(record); !status.is_ok()) {
      return status;
    }
  }
  ++seq_;
  apply_promote(*next, name, version);
  const State& published = *next;
  state_.store(std::move(next), std::memory_order_release);
  if (journal_) maybe_compact_locked(published);
  const auto it = published.models.find(name);
  return it->second.history.back().info;
}

api::Status ModelRegistry::discard(const std::string& name,
                                   std::uint64_t version) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto next =
      std::make_shared<State>(*state_.load(std::memory_order_relaxed));
  const auto by_name = next->quarantine.find(name);
  if (by_name == next->quarantine.end() ||
      by_name->second.find(version) == by_name->second.end()) {
    return api::Status::not_found(
        "no quarantined version " + std::to_string(version) + " of '" +
        name + "'");
  }
  if (journal_) {
    JournalRecord record;
    record.op = kRecordDiscard;
    record.seq = seq_ + 1;
    record.name = name;
    record.subject_version = version;
    if (const auto status = journal_locked(record); !status.is_ok()) {
      return status;
    }
  }
  ++seq_;
  by_name->second.erase(version);
  if (by_name->second.empty()) next->quarantine.erase(by_name);
  ++next->generation;
  const State& published = *next;
  state_.store(std::move(next), std::memory_order_release);
  if (journal_) maybe_compact_locked(published);
  return api::Status::ok();
}

api::Expected<std::uint64_t> ModelRegistry::rollback(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto next =
      std::make_shared<State>(*state_.load(std::memory_order_relaxed));
  const auto it = next->models.find(name);
  if (it == next->models.end() || it->second.history.empty()) {
    return api::Status::not_found("no model named '" + name + "'");
  }
  Entry& entry = it->second;
  if (entry.history.size() < 2) {
    return api::Status::invalid_argument(
        "model '" + name + "' has no previous version to roll back to");
  }
  if (journal_) {
    JournalRecord record;
    record.op = kRecordRollback;
    record.seq = seq_ + 1;
    record.name = name;
    record.rollback_to =
        entry.history[entry.history.size() - 2].info.version;
    if (const auto status = journal_locked(record); !status.is_ok()) {
      return status;
    }
  }
  ++seq_;
  entry.history.pop_back();
  entry.history.back().info.history_depth = entry.history.size() - 1;
  ++next->generation;
  const std::uint64_t version = entry.history.back().info.version;
  const State& published = *next;
  state_.store(std::move(next), std::memory_order_release);
  if (journal_) maybe_compact_locked(published);
  return version;
}

bool ModelRegistry::remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto next =
      std::make_shared<State>(*state_.load(std::memory_order_relaxed));
  const auto it = next->models.find(name);
  if (it == next->models.end()) return false;
  if (journal_) {
    JournalRecord record;
    record.op = kRecordRemove;
    record.seq = seq_ + 1;
    record.name = name;
    if (const auto status = journal_locked(record); !status.is_ok()) {
      throw std::runtime_error("ModelRegistry::remove: " +
                               status.to_string());
    }
  }
  ++seq_;
  next->models.erase(it);
  next->quarantine.erase(name);  // removal covers quarantined versions too
  ++next->generation;
  const State& published = *next;
  state_.store(std::move(next), std::memory_order_release);
  if (journal_) maybe_compact_locked(published);
  return true;
}

// --- queries (lock-free: one acquire-load, then a private snapshot) ---------

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
    return api::Status::not_found("no model named '" + name + "'");
  }
  const Version& live = it->second.history.back();
  return VersionedModel{live.handle, live.info};
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
    if (!entry.history.empty()) {
      out.push_back(
          {entry.history.back().handle, entry.history.back().info});
    }
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
      out.push_back({q.info, q.report});
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
      return QuarantinedModel{by_version->second.info,
                              by_version->second.report};
    }
  }
  return api::Status::not_found("no quarantined version " +
                                std::to_string(version) + " of '" + name +
                                "'");
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
    EntryState exported;
    exported.name = name;
    exported.next_version = entry.next_version;
    exported.versions.reserve(entry.history.size());
    for (const Version& version : entry.history) {
      exported.versions.push_back({version.handle, version.info});
    }
    out.push_back(std::move(exported));
  }
  return out;
}

// --- persistence ------------------------------------------------------------

void ModelRegistry::restore_publish(State& state,
                                    PersistedVersion&& persisted) {
  ++state.generation;
  Entry& entry = state.models[persisted.info.name];
  Version version;
  version.info = persisted.info;
  version.handle =
      std::make_shared<const api::ModelHandle>(std::move(persisted.model));
  entry.next_version =
      std::max(entry.next_version, version.info.version + 1);
  entry.history.push_back(std::move(version));
  if (entry.history.size() > opts_.max_versions) {
    entry.history.erase(entry.history.begin(),
                        entry.history.end() - opts_.max_versions);
  }
  entry.history.back().info.history_depth = entry.history.size() - 1;
}

void ModelRegistry::restore_quarantine(State& state,
                                       PersistedVersion&& persisted,
                                       VerificationReport&& report) {
  ++state.generation;
  QVersion q;
  q.info = persisted.info;
  q.handle =
      std::make_shared<const api::ModelHandle>(std::move(persisted.model));
  q.report = std::move(report);
  Entry& entry = state.models[q.info.name];
  entry.next_version = std::max(entry.next_version, q.info.version + 1);
  const std::string name = q.info.name;
  const std::uint64_t version = q.info.version;
  state.quarantine[name][version] = std::move(q);
}

api::Status ModelRegistry::replay_journal(State& state,
                                          const std::string& journal_path) {
  auto replay = RegistryJournal::replay(journal_path);
  if (!replay) return replay.status();
  for (JournalRecord& record : replay->records) {
    if (record.seq <= seq_) continue;  // captured by the snapshot already
    switch (record.op) {
      case kRecordPublish:
        try {
          restore_publish(state, std::move(*record.version));
        } catch (const std::exception& e) {
          return api::Status::internal("journal replay: publish of '" +
                                       record.name + "': " + e.what());
        }
        break;
      case kRecordRollback: {
        const auto it = state.models.find(record.name);
        if (it == state.models.end() || it->second.history.size() < 2) {
          return api::Status::internal(
              "journal replay: rollback of '" + record.name +
              "' does not match the registry state (journal/snapshot "
              "divergence)");
        }
        Entry& entry = it->second;
        entry.history.pop_back();
        entry.history.back().info.history_depth =
            entry.history.size() - 1;
        if (entry.history.back().info.version != record.rollback_to) {
          return api::Status::internal(
              "journal replay: rollback of '" + record.name +
              "' restored v" +
              std::to_string(entry.history.back().info.version) +
              " where the journal recorded v" +
              std::to_string(record.rollback_to) +
              " (was the registry reopened with a different "
              "max_versions?)");
        }
        ++state.generation;
        break;
      }
      case kRecordRemove:
        if (state.models.erase(record.name) == 0) {
          return api::Status::internal(
              "journal replay: remove of unknown model '" + record.name +
              "' (journal/snapshot divergence)");
        }
        state.quarantine.erase(record.name);
        ++state.generation;
        break;
      case kRecordQuarantine:
        try {
          restore_quarantine(state, std::move(*record.version),
                             std::move(record.verification));
        } catch (const std::exception& e) {
          return api::Status::internal("journal replay: quarantine of '" +
                                       record.name + "': " + e.what());
        }
        break;
      case kRecordPromote:
        if (!apply_promote(state, record.name, record.subject_version)) {
          return api::Status::internal(
              "journal replay: promote of unknown quarantined '" +
              record.name + "' v" +
              std::to_string(record.subject_version) +
              " (journal/snapshot divergence)");
        }
        break;
      case kRecordDiscard: {
        const auto by_name = state.quarantine.find(record.name);
        if (by_name == state.quarantine.end() ||
            by_name->second.erase(record.subject_version) == 0) {
          return api::Status::internal(
              "journal replay: discard of unknown quarantined '" +
              record.name + "' v" +
              std::to_string(record.subject_version) +
              " (journal/snapshot divergence)");
        }
        if (by_name->second.empty()) state.quarantine.erase(by_name);
        ++state.generation;
        break;
      }
      default:
        return api::Status::internal("journal replay: unknown record op");
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
    for (const Version& version : entry.history) {
      write_persisted_version(
          payload,
          PersistedVersion{version.info, version.handle->model()});
    }
  }
  // Quarantine block (appended so snapshots from before the verification
  // gate — which simply end here — still load).
  payload.u64(state.quarantine.size());
  for (const auto& [name, versions] : state.quarantine) {
    payload.str(name);
    payload.u64(versions.size());
    for (const auto& [version, q] : versions) {
      write_persisted_version(
          payload, PersistedVersion{q.info, q.handle->model()});
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
  return compact_locked(*state_.load(std::memory_order_relaxed));
}

api::Status ModelRegistry::journal_locked(const JournalRecord& record) {
  if (auto status = journal_->append(record); !status.is_ok()) {
    return status;
  }
  ++journal_records_;
  return api::Status::ok();
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

  // Rebuild the pre-restart state into one mutable `State`, then publish
  // it with a single store — `open` has no concurrent readers, but the
  // invariant "the atomic always holds a complete state" is kept anyway.
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
          PersistedVersion persisted = read_persisted_version(in);
          Version loaded;
          loaded.info = persisted.info;
          loaded.handle = std::make_shared<const api::ModelHandle>(
              std::move(persisted.model));
          entry.history.push_back(std::move(loaded));
        }
        restored->models[name] = std::move(entry);
      }
      if (in.remaining() > 0) {
        // Quarantine block — absent from pre-verification-gate snapshots.
        const std::uint64_t num_quarantined_names = in.u64();
        for (std::uint64_t q = 0; q < num_quarantined_names; ++q) {
          const std::string name = in.str();
          const std::uint64_t num_versions = in.u64();
          for (std::uint64_t v = 0; v < num_versions; ++v) {
            PersistedVersion persisted = read_persisted_version(in);
            VerificationReport report = read_verification_report(in);
            if (persisted.info.name != name) {
              return api::Status::internal(
                  "'" + snapshot_path + "': quarantine block names '" +
                  persisted.info.name + "' under key '" + name + "'");
            }
            registry->restore_quarantine(*restored, std::move(persisted),
                                         std::move(report));
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
  registry->state_.store(std::move(restored), std::memory_order_release);

  auto journal = RegistryJournal::open(journal_path);
  if (!journal) return journal.status();
  registry->journal_ =
      std::make_unique<RegistryJournal>(std::move(*journal));
  registry->journal_->set_fault_injector(persist.fault_injector);
  return registry;
}

}  // namespace mfti::serving
