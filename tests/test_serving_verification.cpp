// Tests for verified publishing (src/serving/verification + the registry
// quarantine store): the policy's structured checks, the publish-time
// gate's core invariant — a failing model is never observable through the
// query path and the previous live version keeps serving untouched — the
// operator surface (promote with re-verification, force, discard),
// durability of the quarantine store across warm restart and crash-safe
// compaction (including under injected journal faults), replay of random
// mixed histories against what the writers built, the AsyncFitter
// auto-publish outcome, the gate's telemetry counters, and the
// MFTI_VERIFY* environment knobs.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "io/fault_injector.hpp"
#include "sampling/grid.hpp"
#include "sampling/sampler.hpp"
#include "scoped_env.hpp"
#include "serving/serving.hpp"

namespace api = mfti::api;
namespace fs = std::filesystem;
namespace io = mfti::io;
namespace la = mfti::la;
namespace serving = mfti::serving;
namespace sp = mfti::sampling;
namespace ss = mfti::ss;

using la::Mat;

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Fresh scratch directory, removed on scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("mfti_verify_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

/// A trivially passive/non-passive 1-port: H(s) = g / (s/w0 + 1), stable
/// for every g (single pencil eigenvalue at -w0), scattering-passive iff
/// g <= 1.
ss::DescriptorSystem gain_lowpass(double g, double w0 = 2.0 * kPi * 1e3) {
  return {Mat{{1.0 / w0}}, Mat{{-1}}, Mat{{1}}, Mat{{g}}, Mat{{0}}};
}

/// Passive but unstable: H(s) = 0.1 / (s - 1) has |H(jw)| <= 0.1 on the
/// axis yet a right-half-plane pole.
ss::DescriptorSystem unstable_lowgain() {
  return {Mat{{1.0}}, Mat{{1.0}}, Mat{{1}}, Mat{{0.1}}, Mat{{0}}};
}

serving::ModelSnapshot snapshot_of(ss::DescriptorSystem sys) {
  return std::make_shared<const api::ModelHandle>(std::move(sys));
}

/// Registry options carrying a policy built from `opts`.
serving::ModelRegistryOptions gated(serving::VerificationOptions opts) {
  serving::ModelRegistryOptions registry_opts;
  registry_opts.verification =
      std::make_shared<const serving::VerificationPolicy>(opts);
  return registry_opts;
}

/// Default policy narrowed to the fixtures' band (fast, deterministic).
serving::VerificationOptions fixture_policy() {
  serving::VerificationOptions opts;
  opts.band_lo_hz = 1.0;
  opts.band_hi_hz = 1e6;
  opts.grid_points = 100;
  return opts;
}

/// Thresholds that never auto-compact, so tests control compaction.
serving::RegistryPersistenceOptions no_compaction() {
  serving::RegistryPersistenceOptions persist;
  persist.compact_min_records = 1u << 20;
  persist.compact_min_bytes = 0;
  return persist;
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

const serving::VerificationCheck* find_check(
    const serving::VerificationReport& report, const std::string& name) {
  for (const auto& check : report.checks) {
    if (check.name == name) return &check;
  }
  return nullptr;
}

void expect_same_info(const serving::ModelInfo& a,
                      const serving::ModelInfo& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.num_inputs, b.num_inputs);
  EXPECT_EQ(a.num_outputs, b.num_outputs);
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.fit_seconds, b.fit_seconds);
  EXPECT_EQ(a.published_at, b.published_at);
  EXPECT_EQ(a.history_depth, b.history_depth);
}

/// Live histories, the quarantine store and its size all match.
void expect_same_fleet(const serving::ModelRegistry& a,
                       const serving::ModelRegistry& b) {
  const auto entries_a = a.export_state();
  const auto entries_b = b.export_state();
  ASSERT_EQ(entries_a.size(), entries_b.size());
  for (std::size_t e = 0; e < entries_a.size(); ++e) {
    SCOPED_TRACE("entry " + entries_a[e].name);
    EXPECT_EQ(entries_a[e].name, entries_b[e].name);
    EXPECT_EQ(entries_a[e].next_version, entries_b[e].next_version);
    ASSERT_EQ(entries_a[e].versions.size(), entries_b[e].versions.size());
    for (std::size_t v = 0; v < entries_a[e].versions.size(); ++v) {
      expect_same_info(entries_a[e].versions[v].info,
                       entries_b[e].versions[v].info);
      EXPECT_TRUE(entries_a[e].versions[v].handle->model() ==
                  entries_b[e].versions[v].handle->model());
    }
  }
  const auto quarantined_a = a.quarantined();
  const auto quarantined_b = b.quarantined();
  ASSERT_EQ(quarantined_a.size(), quarantined_b.size());
  for (std::size_t q = 0; q < quarantined_a.size(); ++q) {
    expect_same_info(quarantined_a[q].info, quarantined_b[q].info);
    EXPECT_EQ(quarantined_a[q].report.summary(),
              quarantined_b[q].report.summary());
  }
  EXPECT_EQ(a.verify_stats().quarantined, b.verify_stats().quarantined);
}

}  // namespace

// --- VerificationPolicy ------------------------------------------------------

TEST(VerificationPolicy, PassiveStableModelPassesEveryCheck) {
  const serving::VerificationPolicy policy(fixture_policy());
  const auto report = policy.verify(gain_lowpass(0.8));
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.summary(), "verified");
  ASSERT_EQ(report.checks.size(), 2u);  // no held-out: fit_error skipped
  const auto* passivity = find_check(report, "passivity");
  ASSERT_NE(passivity, nullptr);
  EXPECT_TRUE(passivity->passed);
  EXPECT_EQ(passivity->value, 0.0);  // no violation found
  const auto* stability = find_check(report, "stability");
  ASSERT_NE(stability, nullptr);
  EXPECT_TRUE(stability->passed);
  EXPECT_LT(stability->value, 0.0);  // largest Re(lambda) = -w0
}

TEST(VerificationPolicy, NonPassiveModelFailsPassivityOnly) {
  const serving::VerificationPolicy policy(fixture_policy());
  const auto report = policy.verify(gain_lowpass(1.3));
  EXPECT_FALSE(report.passed);
  const auto* passivity = find_check(report, "passivity");
  ASSERT_NE(passivity, nullptr);
  EXPECT_FALSE(passivity->passed);
  EXPECT_NEAR(passivity->value, 1.3, 0.01);
  EXPECT_NE(report.summary().find("passivity"), std::string::npos);
  const auto* stability = find_check(report, "stability");
  ASSERT_NE(stability, nullptr);
  EXPECT_TRUE(stability->passed);  // still stable, only passivity fails
}

TEST(VerificationPolicy, UnstableModelFailsStability) {
  const serving::VerificationPolicy policy(fixture_policy());
  const auto report = policy.verify(unstable_lowgain());
  EXPECT_FALSE(report.passed);
  const auto* stability = find_check(report, "stability");
  ASSERT_NE(stability, nullptr);
  EXPECT_FALSE(stability->passed);
  EXPECT_NEAR(stability->value, 1.0, 1e-9);  // the RHP pole at +1
  const auto* passivity = find_check(report, "passivity");
  ASSERT_NE(passivity, nullptr);
  EXPECT_TRUE(passivity->passed);  // |H(jw)| <= 0.1 on the axis
}

TEST(VerificationPolicy, FitErrorCheckUsesHeldOutSamples) {
  serving::VerificationOptions opts = fixture_policy();
  opts.max_fit_error = 1e-3;
  const serving::VerificationPolicy policy(opts);
  const ss::DescriptorSystem sys = gain_lowpass(0.8);
  const sp::SampleSet own = sp::sample_system(sys, sp::log_grid(1.0, 1e6, 20));
  const sp::SampleSet other =
      sp::sample_system(gain_lowpass(0.4), sp::log_grid(1.0, 1e6, 20));

  // Without samples the check is skipped entirely.
  EXPECT_EQ(policy.verify(sys).checks.size(), 2u);

  const auto good = policy.verify(sys, &own);
  ASSERT_NE(find_check(good, "fit_error"), nullptr);
  EXPECT_TRUE(good.passed);
  EXPECT_LE(find_check(good, "fit_error")->value, 1e-3);

  const auto bad = policy.verify(sys, &other);
  EXPECT_FALSE(bad.passed);
  const auto* err = find_check(bad, "fit_error");
  ASSERT_NE(err, nullptr);
  EXPECT_FALSE(err->passed);
  EXPECT_GT(err->value, 1e-3);
  EXPECT_EQ(err->threshold, 1e-3);
}

TEST(VerificationPolicy, DegenerateBandFailsAsStatusNotException) {
  serving::VerificationOptions opts = fixture_policy();
  opts.band_lo_hz = opts.band_hi_hz;  // zero-width band
  const serving::VerificationPolicy policy(opts);
  serving::VerificationReport report;
  EXPECT_NO_THROW(report = policy.verify(gain_lowpass(0.8)));
  EXPECT_FALSE(report.passed);  // promoted only on positive evidence
  const auto* passivity = find_check(report, "passivity");
  ASSERT_NE(passivity, nullptr);
  EXPECT_FALSE(passivity->passed);
  EXPECT_EQ(passivity->status.code(), api::StatusCode::InvalidArgument);
}

// --- The publish gate --------------------------------------------------------

TEST(VerifiedPublish, PassingModelGoesLiveNormally) {
  serving::ModelRegistry registry(gated(fixture_policy()));
  const serving::PublishResult result =
      registry.publish("m", snapshot_of(gain_lowpass(0.8)));
  EXPECT_EQ(result.version, 1u);
  EXPECT_FALSE(result.quarantined);
  EXPECT_TRUE(result.verification.passed);
  EXPECT_NE(registry.lookup("m"), nullptr);
  EXPECT_TRUE(registry.quarantined().empty());
}

TEST(VerifiedPublish, FailingModelIsNeverObservableViaQueryPath) {
  serving::ModelRegistry registry(gated(fixture_policy()));
  const serving::PublishResult result =
      registry.publish("m", snapshot_of(gain_lowpass(1.3)));
  EXPECT_EQ(result.version, 1u);
  EXPECT_TRUE(result.quarantined);
  EXPECT_FALSE(result.verification.passed);

  // The entire query path is blind to the quarantined version.
  EXPECT_EQ(registry.lookup("m"), nullptr);
  EXPECT_EQ(registry.acquire("m").status().code(), api::StatusCode::NotFound);
  EXPECT_EQ(registry.info("m").status().code(), api::StatusCode::NotFound);
  EXPECT_TRUE(registry.list().empty());
  EXPECT_TRUE(registry.live_models().empty());
  EXPECT_EQ(registry.size(), 0u);

  // Only the quarantine surface sees it.
  const auto all = registry.quarantined();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].info.name, "m");
  EXPECT_EQ(all[0].info.version, 1u);
  EXPECT_FALSE(all[0].report.passed);
  const auto one = registry.quarantined("m", 1);
  ASSERT_TRUE(one);
  EXPECT_EQ(one->report.summary(), all[0].report.summary());
}

TEST(VerifiedPublish, FailedPublishLeavesLiveVersionUntouched) {
  serving::ModelRegistry registry(gated(fixture_policy()));
  ASSERT_FALSE(registry.publish("m", snapshot_of(gain_lowpass(0.8)))
                   .quarantined);
  const serving::ModelSnapshot live_before = registry.lookup("m");
  const std::uint64_t generation_before = registry.generation();

  ASSERT_TRUE(registry.publish("m", snapshot_of(gain_lowpass(1.3)))
                  .quarantined);

  // The exact same snapshot object keeps serving — no retract window, no
  // republish, not even a handle swap.
  EXPECT_EQ(registry.lookup("m"), live_before);
  const auto info = registry.info("m");
  ASSERT_TRUE(info);
  EXPECT_EQ(info->version, 1u);
  EXPECT_EQ(info->history_depth, 0u);
  // The quarantine insert is a mutation (journaled, bumps generation) but
  // the live map within is untouched.
  EXPECT_GT(registry.generation(), generation_before);
}

TEST(VerifiedPublish, VersionNumbersNeverCollideAcrossQuarantine) {
  serving::ModelRegistry registry(gated(fixture_policy()));
  EXPECT_EQ(registry.publish("m", snapshot_of(gain_lowpass(0.8))).version, 1u);
  EXPECT_EQ(registry.publish("m", snapshot_of(gain_lowpass(1.3))).version, 2u);
  // The quarantined version holds its number: the next publish skips it.
  const serving::PublishResult third =
      registry.publish("m", snapshot_of(gain_lowpass(0.9)));
  EXPECT_EQ(third.version, 3u);
  EXPECT_FALSE(third.quarantined);
  const auto info = registry.info("m");
  ASSERT_TRUE(info);
  EXPECT_EQ(info->version, 3u);
  ASSERT_EQ(registry.quarantined().size(), 1u);
  EXPECT_EQ(registry.quarantined()[0].info.version, 2u);
}

TEST(VerifiedPublish, UngatedRegistryNeverQuarantines) {
  serving::ModelRegistry registry;  // no policy: historical behaviour
  const serving::PublishResult result =
      registry.publish("m", snapshot_of(gain_lowpass(1.3)));
  EXPECT_FALSE(result.quarantined);
  EXPECT_TRUE(result.verification.checks.empty());
  EXPECT_NE(registry.lookup("m"), nullptr);
  // Old call sites still compile and compare against the version number.
  EXPECT_EQ(registry.publish("m", snapshot_of(gain_lowpass(0.5))), 2u);
}

// --- Promote / discard -------------------------------------------------------

TEST(Quarantine, PromoteReVerifiesAndRefusesARepeatFailure) {
  serving::ModelRegistry registry(gated(fixture_policy()));
  ASSERT_TRUE(registry.publish("m", snapshot_of(gain_lowpass(1.3)))
                  .quarantined);

  const auto refused = registry.promote("m", 1);
  ASSERT_FALSE(refused);
  EXPECT_EQ(refused.status().code(), api::StatusCode::NumericalError);
  EXPECT_NE(refused.status().message().find("use force to override"),
            std::string::npos);
  // The refusal leaves everything in place: still quarantined, still
  // unobservable.
  EXPECT_EQ(registry.lookup("m"), nullptr);
  ASSERT_EQ(registry.quarantined().size(), 1u);

  const auto forced = registry.promote("m", 1, /*force=*/true);
  ASSERT_TRUE(forced) << forced.status().to_string();
  EXPECT_EQ(forced->version, 1u);
  EXPECT_EQ(forced->name, "m");
  EXPECT_NE(registry.lookup("m"), nullptr);
  EXPECT_TRUE(registry.quarantined().empty());
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Quarantine, PromotedVersionJoinsHistoryAndRollsBack) {
  serving::ModelRegistry registry(gated(fixture_policy()));
  ASSERT_FALSE(registry.publish("m", snapshot_of(gain_lowpass(0.8)))
                   .quarantined);
  ASSERT_TRUE(registry.publish("m", snapshot_of(gain_lowpass(1.3)))
                  .quarantined);
  const auto promoted = registry.promote("m", 2, /*force=*/true);
  ASSERT_TRUE(promoted) << promoted.status().to_string();
  EXPECT_EQ(promoted->version, 2u);
  EXPECT_EQ(promoted->history_depth, 1u);  // v1 kept for rollback

  const auto back = registry.rollback("m");
  ASSERT_TRUE(back) << back.status().to_string();
  EXPECT_EQ(*back, 1u);
}

TEST(Quarantine, DiscardDropsTheVersionForGood) {
  serving::ModelRegistry registry(gated(fixture_policy()));
  ASSERT_TRUE(registry.publish("m", snapshot_of(gain_lowpass(1.3)))
                  .quarantined);
  EXPECT_TRUE(registry.discard("m", 1).is_ok());
  EXPECT_TRUE(registry.quarantined().empty());
  EXPECT_EQ(registry.quarantined("m", 1).status().code(),
            api::StatusCode::NotFound);
  // Idempotence boundary: a second discard (or a promote) is NotFound.
  EXPECT_EQ(registry.discard("m", 1).code(), api::StatusCode::NotFound);
  EXPECT_EQ(registry.promote("m", 1).status().code(),
            api::StatusCode::NotFound);
  // The version number stays burned: quarantine never recycles numbers.
  EXPECT_EQ(registry.publish("m", snapshot_of(gain_lowpass(0.8))).version,
            2u);
}

TEST(Quarantine, RemoveDropsQuarantinedVersionsWithTheName) {
  serving::ModelRegistry registry(gated(fixture_policy()));
  ASSERT_FALSE(registry.publish("m", snapshot_of(gain_lowpass(0.8)))
                   .quarantined);
  ASSERT_TRUE(registry.publish("m", snapshot_of(gain_lowpass(1.3)))
                  .quarantined);
  EXPECT_TRUE(registry.remove("m"));
  EXPECT_TRUE(registry.quarantined().empty());
  EXPECT_EQ(registry.size(), 0u);
}

// --- Durability --------------------------------------------------------------

TEST(QuarantineDurability, SurvivesWarmRestartWithReportIntact) {
  TempDir dir("warm_restart");
  serving::VerificationReport before;
  {
    auto registry = serving::ModelRegistry::open(
        dir.str(), gated(fixture_policy()), no_compaction());
    ASSERT_TRUE(registry) << registry.status().to_string();
    ASSERT_FALSE((*registry)
                     ->publish("m", snapshot_of(gain_lowpass(0.8)))
                     .quarantined);
    ASSERT_TRUE((*registry)
                    ->publish("m", snapshot_of(gain_lowpass(1.3)))
                    .quarantined);
    const auto q = (*registry)->quarantined("m", 2);
    ASSERT_TRUE(q);
    before = q->report;
  }

  // Reopen without a policy: the persisted quarantine must come back as
  // data, not be re-derived.
  auto reopened = serving::ModelRegistry::open(dir.str(), {}, no_compaction());
  ASSERT_TRUE(reopened) << reopened.status().to_string();
  EXPECT_NE((*reopened)->lookup("m"), nullptr);
  const auto q = (*reopened)->quarantined("m", 2);
  ASSERT_TRUE(q) << q.status().to_string();
  EXPECT_FALSE(q->report.passed);
  EXPECT_EQ(q->report.summary(), before.summary());
  ASSERT_EQ(q->report.checks.size(), before.checks.size());
  for (std::size_t i = 0; i < before.checks.size(); ++i) {
    SCOPED_TRACE("check " + before.checks[i].name);
    EXPECT_EQ(q->report.checks[i].name, before.checks[i].name);
    EXPECT_EQ(q->report.checks[i].passed, before.checks[i].passed);
    EXPECT_EQ(q->report.checks[i].status.code(),
              before.checks[i].status.code());
    EXPECT_EQ(q->report.checks[i].value, before.checks[i].value);
    EXPECT_EQ(q->report.checks[i].threshold, before.checks[i].threshold);
    EXPECT_EQ(q->report.checks[i].detail, before.checks[i].detail);
    EXPECT_EQ(q->report.checks[i].seconds, before.checks[i].seconds);
  }

  // Version numbering continues past the quarantined version.
  EXPECT_EQ((*reopened)->publish("m", snapshot_of(gain_lowpass(0.7))).version,
            3u);
}

TEST(QuarantineDurability, PromoteAndDiscardReplayFromJournal) {
  TempDir dir("promote_replay");
  {
    auto registry = serving::ModelRegistry::open(
        dir.str(), gated(fixture_policy()), no_compaction());
    ASSERT_TRUE(registry);
    ASSERT_TRUE((*registry)
                    ->publish("a", snapshot_of(gain_lowpass(1.3)))
                    .quarantined);
    ASSERT_TRUE((*registry)
                    ->publish("b", snapshot_of(gain_lowpass(1.2)))
                    .quarantined);
    ASSERT_TRUE((*registry)->promote("a", 1, /*force=*/true));
    ASSERT_TRUE((*registry)->discard("b", 1).is_ok());
  }
  auto reopened = serving::ModelRegistry::open(dir.str(), {}, no_compaction());
  ASSERT_TRUE(reopened) << reopened.status().to_string();
  EXPECT_NE((*reopened)->lookup("a"), nullptr);  // promote replayed
  EXPECT_EQ((*reopened)->info("a")->version, 1u);
  EXPECT_EQ((*reopened)->lookup("b"), nullptr);  // discard replayed
  EXPECT_TRUE((*reopened)->quarantined().empty());
  // "b" still owns its burned version number after replay.
  EXPECT_EQ((*reopened)->publish("b", snapshot_of(gain_lowpass(0.8))).version,
            2u);
}

TEST(QuarantineDurability, CompactionReplayIsIdempotentForQuarantine) {
  // The crash-safe compaction contract: records already captured by the
  // snapshot are skipped on replay even when the journal still holds them
  // (a crash between snapshot rename and journal reset).
  TempDir dir("compact_crash");
  const fs::path journal_path = dir.path() / "registry.journal";
  {
    auto registry = serving::ModelRegistry::open(
        dir.str(), gated(fixture_policy()), no_compaction());
    ASSERT_TRUE(registry);
    ASSERT_FALSE((*registry)
                     ->publish("m", snapshot_of(gain_lowpass(0.8)))
                     .quarantined);
    ASSERT_TRUE((*registry)
                    ->publish("m", snapshot_of(gain_lowpass(1.3)))
                    .quarantined);

    const std::string stale_journal = read_bytes(journal_path);
    ASSERT_FALSE(stale_journal.empty());
    ASSERT_TRUE((*registry)->compact().is_ok());
    // Simulate the crash: the snapshot now holds the quarantine block but
    // the journal reset never happened.
    write_bytes(journal_path, stale_journal);
  }
  auto reopened = serving::ModelRegistry::open(dir.str(), {}, no_compaction());
  ASSERT_TRUE(reopened) << reopened.status().to_string();
  // Exactly one live version and one quarantined version — the stale JQUA
  // record was not applied twice.
  EXPECT_EQ((*reopened)->size(), 1u);
  EXPECT_EQ((*reopened)->info("m")->version, 1u);
  ASSERT_EQ((*reopened)->quarantined().size(), 1u);
  EXPECT_EQ((*reopened)->quarantined()[0].info.version, 2u);
  EXPECT_EQ((*reopened)->publish("m", snapshot_of(gain_lowpass(0.7))).version,
            3u);
}

TEST(QuarantineDurability, RefusedQuarantineAppendLeavesRegistryAndDiskAlone) {
  TempDir dir("fault_qua");
  serving::RegistryPersistenceOptions persist = no_compaction();
  persist.fault_injector = std::make_shared<io::FaultInjector>();
  auto registry = serving::ModelRegistry::open(
      dir.str(), gated(fixture_policy()), persist);
  ASSERT_TRUE(registry) << registry.status().to_string();
  ASSERT_FALSE((*registry)
                   ->publish("m", snapshot_of(gain_lowpass(0.8)))
                   .quarantined);
  const std::string journal_before =
      read_bytes(dir.path() / "registry.journal");
  const std::uint64_t generation_before = (*registry)->generation();

  // The JQUA append is refused: the quarantine insert must vanish without
  // a trace — in memory and on disk.
  persist.fault_injector->arm(io::FaultInjector::Mode::FailOnce);
  EXPECT_THROW(
      (*registry)->publish("m", snapshot_of(gain_lowpass(1.3))),
      std::runtime_error);
  EXPECT_EQ(persist.fault_injector->fired(), 1u);
  EXPECT_TRUE((*registry)->quarantined().empty());
  EXPECT_EQ((*registry)->generation(), generation_before);
  EXPECT_EQ(read_bytes(dir.path() / "registry.journal"), journal_before);

  // The injector auto-disarmed: the retry lands in quarantine with the
  // same version number the refused attempt would have taken.
  const serving::PublishResult retry =
      (*registry)->publish("m", snapshot_of(gain_lowpass(1.3)));
  EXPECT_TRUE(retry.quarantined);
  EXPECT_EQ(retry.version, 2u);

  // A refused promote reports the failure and keeps the entry quarantined.
  persist.fault_injector->arm(io::FaultInjector::Mode::FailOnce);
  const auto refused = (*registry)->promote("m", 2, /*force=*/true);
  ASSERT_FALSE(refused);
  EXPECT_EQ(refused.status().code(), api::StatusCode::Internal);
  ASSERT_EQ((*registry)->quarantined().size(), 1u);
  EXPECT_NE((*registry)->lookup("m"), nullptr);
  EXPECT_EQ((*registry)->info("m")->version, 1u);
}

// Replay must rebuild exactly what the writers built, for any history:
// random mixes of passing and refused publishes, forced and re-verified
// promotes, discards, rollbacks and removals over three names, including
// operations that must be refused. Checked with the whole history in the
// journal, with a compaction halfway through, and with a compaction after
// every record.
TEST(QuarantineDurability, ReplayRebuildsWhatTheWritersBuiltForAnyHistory) {
  serving::VerificationOptions policy = fixture_policy();
  policy.max_fit_error = 1e-3;
  serving::ModelRegistryOptions opts = gated(policy);
  opts.max_versions = 3;
  // Held-out samples of another system: a publish checked against them is
  // quarantined by the fit-error check alone, so its re-verified promote
  // (which has no samples) passes.
  const sp::SampleSet mismatched =
      sp::sample_system(gain_lowpass(0.4), sp::log_grid(1.0, 1e6, 20));
  const std::vector<std::string> names = {"a", "b", "c"};

  enum class Variant { JournalOnly, CompactHalfway, CompactEveryRecord };
  for (const Variant variant : {Variant::JournalOnly, Variant::CompactHalfway,
                                Variant::CompactEveryRecord}) {
    for (std::uint32_t seed = 1; seed <= 5; ++seed) {
      SCOPED_TRACE("variant " + std::to_string(static_cast<int>(variant)) +
                   " seed " + std::to_string(seed));
      TempDir dir("any_history");
      const fs::path writer_dir = dir.path() / "writer";
      const fs::path journal_path = writer_dir / "registry.journal";
      serving::RegistryPersistenceOptions persist = no_compaction();
      if (variant == Variant::CompactEveryRecord) {
        persist.compact_min_records = 1;
      }
      auto opened =
          serving::ModelRegistry::open(writer_dir.string(), opts, persist);
      ASSERT_TRUE(opened) << opened.status().to_string();
      serving::ModelRegistry& registry = **opened;

      std::mt19937 rng(seed);
      const auto pick = [&](std::uint32_t n) {
        return std::uniform_int_distribution<std::uint32_t>(0, n - 1)(rng);
      };
      // Publish a 1-port of random gain in [lo, hi]; true when quarantined.
      const auto publish = [&](const std::string& name, double lo, double hi,
                               const sp::SampleSet* held_out) {
        const double g = std::uniform_real_distribution<double>(lo, hi)(rng);
        return registry
            .publish(name, snapshot_of(gain_lowpass(g)), {}, 0.0, held_out)
            .quarantined;
      };
      // A quarantined version of `name` most of the time, else an absent
      // one.
      const auto pick_quarantined = [&](const std::string& name) {
        std::vector<std::uint64_t> held;
        for (const auto& q : registry.quarantined()) {
          if (q.info.name == name) held.push_back(q.info.version);
        }
        if (held.empty() || pick(4) == 0) return std::uint64_t{1000};
        return held[pick(static_cast<std::uint32_t>(held.size()))];
      };
      const auto registered = [&](const std::string& name) {
        for (const auto& entry : registry.export_state()) {
          if (entry.name == name) return true;
        }
        return false;
      };
      // Open a copy of the directory, so that the two registries never
      // append to one journal.
      const fs::path reader_dir = dir.path() / "reader";
      api::Expected<std::unique_ptr<serving::ModelRegistry>> reopened =
          api::Status::internal("not reopened yet");
      const auto reopen = [&] {
        reopened = api::Status::internal("reopening");  // closes the last one
        fs::remove_all(reader_dir);
        fs::copy(writer_dir, reader_dir, fs::copy_options::recursive);
        reopened =
            serving::ModelRegistry::open(reader_dir.string(), opts, persist);
      };

      for (int op = 0; op < 150; ++op) {
        SCOPED_TRACE("op " + std::to_string(op));
        if (variant == Variant::CompactHalfway && op == 75) {
          ASSERT_TRUE(registry.compact().is_ok());
        }
        const std::string& name = names[pick(3)];
        const auto journal_size = fs::file_size(journal_path);
        bool refused = false;
        switch (pick(8)) {
          case 0:  // passes the gate
            EXPECT_FALSE(publish(name, 0.5, 0.9, nullptr));
            break;
          case 1:  // fails passivity
            EXPECT_TRUE(publish(name, 1.1, 1.5, nullptr));
            break;
          case 2:  // fails the held-out fit error only
            EXPECT_TRUE(publish(name, 0.6, 0.9, &mismatched));
            break;
          case 3:
          case 4: {
            const std::uint64_t version = pick_quarantined(name);
            const auto held = registry.quarantined(name, version);
            const bool force = pick(2) == 0;
            const auto promoted = registry.promote(name, version, force);
            if (!held) {
              EXPECT_EQ(promoted.status().code(), api::StatusCode::NotFound);
            } else if (!force &&
                       !find_check(held->report, "passivity")->passed) {
              EXPECT_EQ(promoted.status().code(),
                        api::StatusCode::NumericalError);
            } else {
              ASSERT_TRUE(promoted) << promoted.status().to_string();
              EXPECT_EQ(promoted->version, version);
            }
            refused = !promoted;
            break;
          }
          case 5: {
            const std::uint64_t version = pick_quarantined(name);
            const bool held = registry.quarantined(name, version).has_value();
            EXPECT_EQ(registry.discard(name, version).code(),
                      held ? api::StatusCode::Ok : api::StatusCode::NotFound);
            refused = !held;
            break;
          }
          case 6: {
            const auto live = registry.info(name);
            const auto rolled = registry.rollback(name);
            if (!live) {
              EXPECT_EQ(rolled.status().code(), api::StatusCode::NotFound);
            } else if (live->history_depth == 0) {
              EXPECT_EQ(rolled.status().code(),
                        api::StatusCode::InvalidArgument);
            } else {
              ASSERT_TRUE(rolled) << rolled.status().to_string();
              EXPECT_EQ(registry.info(name)->version, *rolled);
            }
            refused = !rolled;
            break;
          }
          default: {
            const bool present = registered(name);
            EXPECT_EQ(registry.remove(name), present);
            refused = !present;
            break;
          }
        }
        if (refused) {
          EXPECT_EQ(fs::file_size(journal_path), journal_size)
              << "a refused operation reached the journal";
        }
        // Every prefix of the history is a history: reopen what is on disk
        // now and compare.
        reopen();
        ASSERT_TRUE(reopened) << reopened.status().to_string();
        expect_same_fleet(registry, **reopened);
        if (HasFailure()) return;
      }

      // Both continue the same version sequence.
      const serving::ModelSnapshot next = snapshot_of(gain_lowpass(0.7));
      EXPECT_EQ(registry.publish("a", next).version,
                (*reopened)->publish("a", next).version);
    }
  }
}

// --- AsyncFitter integration -------------------------------------------------

TEST(VerifiedAsyncFitter, QuarantinedFitResolvesAsNumericalError) {
  serving::VerificationOptions opts = fixture_policy();
  opts.band_lo_hz = 10.0;
  opts.band_hi_hz = 1e5;  // the sampled band
  serving::ModelRegistry registry(gated(opts));
  serving::AsyncFitter fits(registry);

  // Fit samples of a non-passive device: the (accurate) fit reproduces
  // the gain of 1.3 and the gate refuses to serve it.
  api::FitRequest request;
  request.samples = sp::sample_system(gain_lowpass(1.3, 2.0 * kPi * 1e3),
                                      sp::log_grid(10.0, 1e5, 20));
  const auto report = fits.submit(std::move(request), "risky").get();
  ASSERT_FALSE(report);
  EXPECT_EQ(report.status().code(), api::StatusCode::NumericalError);
  EXPECT_NE(report.status().message().find("model quarantined"),
            std::string::npos);

  // Not live, but recoverable by an operator.
  EXPECT_EQ(registry.lookup("risky"), nullptr);
  ASSERT_EQ(registry.quarantined().size(), 1u);
  EXPECT_FALSE(registry.quarantined()[0].report.passed);
  ASSERT_TRUE(registry.promote("risky", 1, /*force=*/true));
  EXPECT_NE(registry.lookup("risky"), nullptr);
}

TEST(VerifiedAsyncFitter, PassingFitPublishesWithFitErrorCheck) {
  serving::VerificationOptions opts = fixture_policy();
  opts.band_lo_hz = 10.0;
  opts.band_hi_hz = 1e5;
  opts.max_fit_error = 1e-6;  // the fitter hands its samples as held-out
  serving::ModelRegistry registry(gated(opts));
  serving::AsyncFitter fits(registry);

  api::FitRequest request;
  request.samples = sp::sample_system(gain_lowpass(0.8, 2.0 * kPi * 1e3),
                                      sp::log_grid(10.0, 1e5, 20));
  const auto report = fits.submit(std::move(request), "safe").get();
  ASSERT_TRUE(report) << report.status().to_string();
  EXPECT_NE(registry.lookup("safe"), nullptr);
  EXPECT_TRUE(registry.quarantined().empty());
  // The gate ran the fit-error check against the request samples.
  const auto stats = registry.verify_stats();
  EXPECT_EQ(stats.verify_pass, 1u);
  bool saw_fit_error = false;
  for (const auto& check : stats.checks) {
    if (check.name == "fit_error") {
      saw_fit_error = true;
      EXPECT_EQ(check.runs, 1u);
    }
  }
  EXPECT_TRUE(saw_fit_error);
}

// --- Telemetry ---------------------------------------------------------------

TEST(VerifyStats, CountersTrackPassFailAndQuarantineSize) {
  serving::ModelRegistry registry(gated(fixture_policy()));
  EXPECT_EQ(registry.verify_stats().verify_pass, 0u);
  EXPECT_EQ(registry.verify_stats().verify_fail, 0u);

  registry.publish("a", snapshot_of(gain_lowpass(0.8)));
  registry.publish("b", snapshot_of(gain_lowpass(1.3)));
  registry.publish("c", snapshot_of(gain_lowpass(1.2)));

  const auto stats = registry.verify_stats();
  EXPECT_EQ(stats.verify_pass, 1u);
  EXPECT_EQ(stats.verify_fail, 2u);
  EXPECT_EQ(stats.quarantined, 2u);
  ASSERT_FALSE(stats.checks.empty());
  for (const auto& check : stats.checks) {
    SCOPED_TRACE(check.name);
    EXPECT_EQ(check.runs, 3u);
    EXPECT_GE(check.seconds_total, 0.0);
  }

  registry.discard("b", 1);
  EXPECT_EQ(registry.verify_stats().quarantined, 1u);
}

// --- Environment knobs -------------------------------------------------------

TEST(VerifyEnv, GateIsOffByDefaultAndOnWhenTruthy) {
  ::unsetenv("MFTI_VERIFY");
  EXPECT_FALSE(serving::verification_policy_from_env().has_value());
  {
    ScopedEnv on("MFTI_VERIFY", "1");
    EXPECT_TRUE(serving::verification_policy_from_env().has_value());
  }
  {
    ScopedEnv on("MFTI_VERIFY", "on");
    EXPECT_TRUE(serving::verification_policy_from_env().has_value());
  }
  {
    ScopedEnv off("MFTI_VERIFY", "0");
    EXPECT_FALSE(serving::verification_policy_from_env().has_value());
  }
}

TEST(VerifyEnv, KnobsOverrideEveryOption) {
  ScopedEnv on("MFTI_VERIFY", "true");
  ScopedEnv lo("MFTI_VERIFY_BAND_LO_HZ", "100");
  ScopedEnv hi("MFTI_VERIFY_BAND_HI_HZ", "12345");
  ScopedEnv grid("MFTI_VERIFY_GRID_POINTS", "77");
  ScopedEnv tol("MFTI_VERIFY_TOLERANCE", "0.01");
  ScopedEnv stab("MFTI_VERIFY_STABILITY", "0");
  ScopedEnv margin("MFTI_VERIFY_STABILITY_MARGIN", "0.5");
  ScopedEnv pasv("MFTI_VERIFY_PASSIVITY", "0");
  ScopedEnv err("MFTI_VERIFY_MAX_FIT_ERROR", "0.25");

  const auto policy = serving::verification_policy_from_env();
  ASSERT_TRUE(policy.has_value());
  const serving::VerificationOptions& opts = policy->options();
  EXPECT_EQ(opts.band_lo_hz, 100.0);
  EXPECT_EQ(opts.band_hi_hz, 12345.0);
  EXPECT_EQ(opts.grid_points, 77u);
  EXPECT_EQ(opts.passivity_tolerance, 0.01);
  EXPECT_FALSE(opts.check_stability);
  EXPECT_EQ(opts.stability_margin, 0.5);
  EXPECT_FALSE(opts.check_passivity);
  EXPECT_EQ(opts.max_fit_error, 0.25);
}

TEST(VerifyEnv, MalformedKnobIsIgnoredNotFatal) {
  ScopedEnv on("MFTI_VERIFY", "1");
  ScopedEnv bad("MFTI_VERIFY_GRID_POINTS", "not-a-number");
  const auto policy = serving::verification_policy_from_env();
  ASSERT_TRUE(policy.has_value());
  EXPECT_EQ(policy->options().grid_points,
            serving::VerificationOptions{}.grid_points);
}
