/// \file model_registry.hpp
/// \brief RCU-read map of named, versioned serving models.
///
/// Each model name holds a short history of immutable snapshots
/// (`shared_ptr<const api::ModelHandle>`). The whole registry state —
/// every name, its history and metadata — lives in one immutable `State`
/// object: readers (`lookup`, `acquire`, `list`, `live_models`, ...) copy
/// the state pointer under a mutex that is held for nothing else, then
/// read their private snapshot, so the query path never waits on a
/// writer. Every mutation (`publish`, `rollback`, `remove`, `promote`,
/// `discard`) is one `JournalRecord`: the writer applies it to a copy of
/// the current state, appends it to the write-ahead journal (durable
/// registries) and swaps the copy in — RCU-style copy-and-swap. A record
/// that does not apply, or whose journal append fails, is dropped with
/// the copy, leaving the registry observably unchanged. Journal replay
/// applies the same records with the same function, so a reopened
/// registry rebuilds exactly the state its writers built.
///
/// Verified publishing: when `ModelRegistryOptions::verification` holds a
/// `VerificationPolicy`, every publish runs the policy *before* anything
/// is journaled or swapped. A failing model lands in the **quarantine
/// store** — a separate map that `lookup`/`acquire`/`list` never read, so
/// a bad model is not observable by the query path at any point and the
/// previous live version keeps serving untouched. Quarantine mutations
/// are journaled (`JQUA`/`JPRO`/`JDSC`) and captured by compaction, so
/// the store survives warm restart. Operators inspect via `quarantined()`
/// and resolve via `promote` (re-verify, or `force`) / `discard`.
///
/// ```cpp
/// serving::ModelRegistry registry;
/// registry.publish("pdn", *report);              // version 1
/// auto model = registry.acquire("pdn");          // private snapshot
/// registry.publish("pdn", *better_report);       // version 2, v1 history
/// registry.rollback("pdn");                      // v1 live again
/// ```
///
/// The registry owns names and history; the engine (serving_engine.hpp)
/// owns dispatch; the fit pipeline (async_fitter.hpp)
/// feeds new versions in from the background.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/fit_report.hpp"
#include "api/model_handle.hpp"
#include "api/status.hpp"
#include "serving/verification.hpp"

namespace mfti::io {
class FaultInjector;
}  // namespace mfti::io

namespace mfti::serving {

/// Immutable serving snapshot: queries on a snapshot are unaffected by
/// later publishes.
using ModelSnapshot = std::shared_ptr<const api::ModelHandle>;

/// Descriptive record of one published version.
struct ModelInfo {
  std::string name;
  std::uint64_t version = 0;  ///< 1 for the first publish, monotonic after
  std::size_t order = 0;
  std::size_t num_inputs = 0;
  std::size_t num_outputs = 0;
  /// Strategy that produced the model; absent when published from a bare
  /// handle (e.g. an externally built system).
  std::optional<api::Algorithm> algorithm;
  double fit_seconds = 0.0;  ///< 0 when unknown
  std::chrono::system_clock::time_point published_at;
  /// Older versions still held for `rollback`.
  std::size_t history_depth = 0;
};

/// The live snapshot and its metadata, captured from one immutable state
/// so a republish can never pair one version's handle with another's info.
struct VersionedModel {
  ModelSnapshot handle;
  ModelInfo info;
};

struct ModelRegistryOptions {
  /// Total versions kept per model (the live one plus rollback history).
  /// Clamped to >= 1; 1 disables rollback.
  std::size_t max_versions = 2;
  /// Publish-time verification gate (verification.hpp). When set, every
  /// publish runs the policy and failing models are quarantined instead
  /// of promoted; null leaves publishing ungated (the historical
  /// behaviour). Shared so several registries / fit workers can use one
  /// policy.
  std::shared_ptr<const VerificationPolicy> verification;
};

/// Knobs of the durable (journaled) registry. Defaults come from
/// `from_env()` so a deployed binary can be tuned without a rebuild.
struct RegistryPersistenceOptions {
  /// Compact (rewrite the snapshot, reset the journal) once the journal
  /// holds at least this many live records...
  std::size_t compact_min_records = 64;
  /// ...or has grown to at least this many bytes, whichever comes first.
  /// 0 disables the byte trigger.
  std::size_t compact_min_bytes = 8u << 20;
  /// Test instrumentation: consulted (under the writer mutex) immediately
  /// before every write-ahead journal append — fail-once / short-write /
  /// ENOSPC fault modes plus a stall hook (io/fault_injector.hpp). A
  /// refused append leaves the registry observably unchanged. Never set
  /// in production.
  std::shared_ptr<io::FaultInjector> fault_injector;
  /// Defaults overridden by `MFTI_JOURNAL_COMPACT_RECORDS` and
  /// `MFTI_JOURNAL_COMPACT_BYTES` (malformed values are diagnosed on
  /// stderr and ignored).
  static RegistryPersistenceOptions from_env();
};

/// Outcome of one `publish` call. When the registry has no verification
/// policy, `quarantined` is always false and `verification` is empty.
struct PublishResult {
  /// The version number allocated — live when `!quarantined`, held in the
  /// quarantine store otherwise.
  std::uint64_t version = 0;
  bool quarantined = false;
  VerificationReport verification;

  /// Pre-gate call sites treat `publish` as returning the new version
  /// number; keep them compiling.
  operator std::uint64_t() const { return version; }
};

/// One quarantined version: its would-be metadata plus the verification
/// report explaining why it was refused.
struct QuarantinedModel {
  ModelInfo info;
  VerificationReport report;
};

/// Verification-gate telemetry (rendered as Prometheus series by the
/// HTTP front).
struct RegistryVerifyStats {
  std::uint64_t verify_pass = 0;  ///< publishes that passed the policy
  std::uint64_t verify_fail = 0;  ///< publishes quarantined by the policy
  std::size_t quarantined = 0;    ///< versions currently in quarantine
  struct Check {
    std::string name;  ///< "passivity" | "stability" | "fit_error"
    std::uint64_t runs = 0;
    double seconds_total = 0.0;
  };
  std::vector<Check> checks;  ///< sorted by name
};

class RegistryJournal;
struct JournalRecord;

class ModelRegistry {
 public:
  explicit ModelRegistry(ModelRegistryOptions opts = {});
  ~ModelRegistry();

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Open a *durable* registry rooted at `dir` (created when missing):
  /// replays `registry.snapshot` + `registry.journal` back to the exact
  /// pre-restart state — names, versions, metadata, rollback history —
  /// then journals every later mutation write-ahead. A torn final journal
  /// record (crash mid-append) is truncated with a stderr warning; real
  /// corruption is reported as an error. `opts.max_versions` should match
  /// the writing process (a mismatch is diagnosed on stderr; history is
  /// re-trimmed on later publishes).
  static api::Expected<std::unique_ptr<ModelRegistry>> open(
      const std::string& dir, ModelRegistryOptions opts = {},
      RegistryPersistenceOptions persist =
          RegistryPersistenceOptions::from_env());

  /// Publish `handle` as the new live version of `name`. With a
  /// verification policy installed the policy runs first (outside the
  /// writer lock; `held_out` samples, when given, enable the fit-error
  /// check) and a failing model is quarantined instead — the live map is
  /// untouched and the result says so. On a durable registry the record
  /// is journaled and flushed *before* the state swap.
  /// \throws std::invalid_argument on a null handle, std::runtime_error
  /// when the write-ahead append fails (the registry is left unchanged).
  PublishResult publish(const std::string& name, ModelSnapshot handle,
                        std::optional<api::Algorithm> algorithm = {},
                        double fit_seconds = 0.0,
                        const sampling::SampleSet* held_out = nullptr);

  /// Wrap a successful fit in a `ModelHandle` and publish it, carrying the
  /// report's algorithm and timing into the metadata.
  PublishResult publish(const std::string& name, const api::FitReport& report,
                        const sampling::SampleSet* held_out = nullptr);

  /// The live snapshot of `name`, or nullptr when unknown. Never waits
  /// on a writer; holding the returned pointer keeps that version alive
  /// across republishes.
  ModelSnapshot lookup(const std::string& name) const;

  /// Live snapshot plus its metadata, from one state snapshot — never a
  /// mix of two versions.
  api::Expected<VersionedModel> acquire(const std::string& name) const;

  /// Metadata of the live version.
  api::Expected<ModelInfo> info(const std::string& name) const;

  /// Drop the live version and restore the previous one; returns the
  /// version now live. Not-found for unknown names, invalid-argument when
  /// no previous version is held.
  api::Expected<std::uint64_t> rollback(const std::string& name);

  /// Remove `name` entirely; false when it was not registered. Snapshots
  /// already handed out stay valid. \throws std::runtime_error when the
  /// write-ahead append fails (the model stays registered).
  bool remove(const std::string& name);

  /// Every quarantined version, sorted by (name, version).
  std::vector<QuarantinedModel> quarantined() const;

  /// One quarantined version (not-found when absent).
  api::Expected<QuarantinedModel> quarantined(const std::string& name,
                                              std::uint64_t version) const;

  /// Promote a quarantined version to live. Unless `force`, the
  /// verification policy (when installed) runs again first; a repeat
  /// failure reports `NumericalError` and leaves the quarantine entry in
  /// place. Journaled write-ahead like every mutation; a failed append
  /// leaves the registry unchanged.
  api::Expected<ModelInfo> promote(const std::string& name,
                                   std::uint64_t version,
                                   bool force = false);

  /// Drop a quarantined version for good (not-found when absent).
  api::Status discard(const std::string& name, std::uint64_t version);

  /// Verification-gate counters plus the current quarantine size.
  RegistryVerifyStats verify_stats() const;

  /// Live-version metadata for every model, sorted by name.
  std::vector<ModelInfo> list() const;

  /// Live snapshots for every model, sorted by name.
  std::vector<VersionedModel> live_models() const;

  std::size_t size() const;

  /// Monotonic counter bumped by every mutation (publish, rollback,
  /// remove). Lets observers skip re-scanning an unchanged live set.
  /// Starts at 1 and is process-local (not persisted).
  std::uint64_t generation() const;

  /// True when this registry journals its mutations (built by `open`).
  bool durable() const { return journal_ != nullptr; }

  /// The durable root, empty for an in-memory registry.
  const std::string& directory() const { return dir_; }

  /// Rewrite the snapshot from the current state and reset the journal.
  /// Runs automatically at the `RegistryPersistenceOptions` thresholds;
  /// call it explicitly for an operator-driven checkpoint (see
  /// docs/operations.md). No-op ok for an in-memory registry.
  api::Status compact();

  /// Full per-entry state, sorted by name, each history oldest-first —
  /// the registry side of the persistence layer and the byte-identity
  /// oracle of the persistence tests.
  struct EntryState {
    std::string name;
    std::uint64_t next_version = 1;
    std::vector<VersionedModel> versions;  ///< oldest first; live at back
  };
  std::vector<EntryState> export_state() const;

 private:
  struct Entry {
    std::vector<VersionedModel> history;  ///< oldest first; live at back
    std::uint64_t next_version = 1;
  };
  /// One quarantined version: handle kept so `promote` needs no refit.
  struct QVersion {
    VersionedModel model;
    VerificationReport report;
  };
  /// The whole registry, immutable once published. Readers copy the
  /// current `StatePtr` and never see a partial mutation; writers clone
  /// it (a shallow copy — the handles are shared) under `mutex_`, apply
  /// one record to the clone and swap it in. `quarantine` is never read by
  /// the query path (`lookup` / `acquire` / `list` / `live_models` consult
  /// `models` only), so a refused model is unobservable to clients at
  /// every point.
  struct State {
    std::map<std::string, Entry> models;
    /// name -> version -> quarantined model. A name may appear here with
    /// an empty-history `models` entry (the entry tracks `next_version`
    /// so quarantined versions and live versions never collide).
    std::map<std::string, std::map<std::uint64_t, QVersion>> quarantine;
    std::uint64_t generation = 1;
  };
  using StatePtr = std::shared_ptr<const State>;

  /// The readers' entry point: a copy of the current state pointer.
  StatePtr state() const;
  /// Make `next` the current state; the replaced one is released after
  /// `state_mutex_` is dropped.
  void swap_state(StatePtr next);

  /// What `record` does to `state` — the one definition of every
  /// mutation, used by the writers (through `commit`) and by journal
  /// replay. It owns all bookkeeping: the history push and trim to
  /// `max_versions`, `history_depth`, the `next_version` watermark,
  /// quarantine insert and extract, and one `generation` bump. A record
  /// that does not fit `state` (unknown name or version, no previous
  /// version, a `rollback_to` that is not the previous version) returns
  /// NotFound or InvalidArgument and changes nothing.
  api::Status apply(State& state, const JournalRecord& record) const;

  /// The one write path: apply `record` to a clone of the current state,
  /// append it write-ahead (durable registries), swap the clone in, then
  /// consider compaction. A record that does not apply never reaches the
  /// journal; a refused append discards the clone, so no version number
  /// is used up. Caller holds `mutex_`.
  api::Status commit(JournalRecord record);

  /// Fold one verification outcome into the pass/fail and per-check
  /// latency counters.
  void record_verification(const VerificationReport& report);

  /// Apply every journal record past `seq_` to the state being rebuilt
  /// by `open`.
  api::Status replay_journal(State& state, const std::string& journal_path);

  /// Serialize the given state as one `REGY` payload / write it as the
  /// snapshot file + reset the journal. Caller holds `mutex_`.
  std::string serialize_state_locked(const State& state) const;
  api::Status compact_locked(const State& state);
  /// Auto-compact when over threshold; called after the state swap (never
  /// between append and swap). Caller holds `mutex_`.
  void maybe_compact_locked(const State& state);

  ModelRegistryOptions opts_;
  /// Writer serialization only — no reader ever takes it.
  mutable std::mutex mutex_;
  /// Verification-gate counters (taken by `record_verification` and
  /// `verify_stats` only — never on the query path).
  mutable std::mutex stats_mutex_;
  std::uint64_t verify_pass_ = 0;
  std::uint64_t verify_fail_ = 0;
  std::map<std::string, RegistryVerifyStats::Check> check_stats_;
  /// Guards `state_` and nothing else: taken only to copy or swap the
  /// pointer — never across verification, a journal append or a state's
  /// destruction — so a reader waits at most for another pointer copy.
  mutable std::mutex state_mutex_;
  /// Current immutable state; never null after construction.
  StatePtr state_;

  // --- durable state (set by `open`, touched only under `mutex_`) ---
  /// Mutations applied over the registry's whole durable life; persisted
  /// in snapshot and journal records so replay is idempotent.
  std::uint64_t seq_ = 0;
  std::string dir_;
  RegistryPersistenceOptions persist_;
  std::unique_ptr<RegistryJournal> journal_;
  /// Records in the journal file not yet captured by the snapshot
  /// (replayed-at-open + appended-since); drives auto-compaction.
  std::size_t journal_records_ = 0;
};

}  // namespace mfti::serving
