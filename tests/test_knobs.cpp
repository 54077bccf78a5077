// Tests for the one knob parser (src/util/knobs): the whole-string
// parsers against a table of accepted and rejected text, `env_knob`'s
// keep-the-default rule and its one-line diagnostic, the `from_env` of
// every option set that reads knobs through it, and the values the
// benchmark and CI set, which must parse to the same options as before.

#include "util/knobs.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "net/net.hpp"
#include "obs/trace.hpp"
#include "scoped_env.hpp"
#include "serving/serving.hpp"

namespace net = mfti::net;
namespace obs = mfti::obs;
namespace serving = mfti::serving;
namespace util = mfti::util;

namespace {

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

struct Row {
  const char* text;
  std::optional<std::uint64_t> as_uint;
  std::optional<double> as_double;
  std::optional<bool> as_bool;
};

const Row kRows[] = {
    // Rejected by every parser: empty, signs, whitespace, trailing text,
    // a base prefix, not-a-number, infinity and an overflowing exponent.
    {"", {}, {}, {}},
    {"-1", {}, {}, {}},
    {"+1", {}, {}, {}},
    {" 1", {}, {}, {}},
    {"1 ", {}, {}, {}},
    {"1x", {}, {}, {}},
    {"0x10", {}, {}, {}},
    {"nan", {}, {}, {}},
    {"inf", {}, {}, {}},
    {"1e999", {}, {}, {}},
    {"-0", {}, {}, {}},
    {"-0.5", {}, {}, {}},
    // 2^64 overflows the integer parser; as a number it is finite.
    {"18446744073709551616", {}, 18446744073709551616.0, {}},
    {"18446744073709551615", kU64Max, 18446744073709551615.0, {}},
    {"0", 0, 0.0, false},
    {"1", 1, 1.0, true},
    {"007", 7, 7.0, {}},
    {".5", {}, 0.5, {}},
    {"1e6", {}, 1e6, {}},
    {"0.02", {}, 0.02, {}},
    {"on", {}, {}, true},
    {"off", {}, {}, false},
    {"true", {}, {}, true},
    {"false", {}, {}, false},
    {"yes", {}, {}, true},
    {"no", {}, {}, false},
    {"ON", {}, {}, {}},
    {"2", 2, 2.0, {}},
};

}  // namespace

TEST(KnobParsers, TableOfAcceptedAndRejectedText) {
  for (const Row& row : kRows) {
    EXPECT_EQ(util::parse_uint(row.text), row.as_uint) << "'" << row.text
                                                       << "'";
    EXPECT_EQ(util::parse_double(row.text), row.as_double)
        << "'" << row.text << "'";
    EXPECT_EQ(util::parse_bool(row.text), row.as_bool)
        << "'" << row.text << "'";
  }
  EXPECT_EQ(util::parse_uint("18446744073709551615", kU64Max), kU64Max);
  EXPECT_EQ(util::parse_uint("65535", 65535), 65535u);
  EXPECT_EQ(util::parse_uint("65536", 65535), std::nullopt);
  EXPECT_EQ(util::parse_uint("65616", 65535), std::nullopt);
}

TEST(EnvKnob, UnsetEmptyOrMalformedKeepsTheDefault) {
  const char* kName = "MFTI_TEST_KNOB";
  ::unsetenv(kName);
  std::size_t size = 5;
  double number = 2.5;
  bool flag = true;
  std::string text = "keep";
  util::env_knob(kName, &size);
  util::env_knob(kName, &number);
  util::env_knob(kName, &flag);
  util::env_knob(kName, &text);
  EXPECT_EQ(size, 5u);
  EXPECT_EQ(number, 2.5);
  EXPECT_TRUE(flag);
  EXPECT_EQ(text, "keep");
  {
    ScopedEnv empty(kName, "");
    util::env_knob(kName, &size);
    util::env_knob(kName, &number);
    util::env_knob(kName, &flag);
    util::env_knob(kName, &text);
    EXPECT_EQ(size, 5u);
    EXPECT_EQ(number, 2.5);
    EXPECT_TRUE(flag);
    EXPECT_EQ(text, "keep");
  }
  {
    ScopedEnv bad(kName, "-1");
    util::env_knob(kName, &size);
    util::env_knob(kName, &number);
    util::env_knob(kName, &flag);
    EXPECT_EQ(size, 5u);
    EXPECT_EQ(number, 2.5);
    EXPECT_TRUE(flag);
  }
  {
    ScopedEnv above_max(kName, "11");
    util::env_knob(kName, &size, 10);
    EXPECT_EQ(size, 5u);
  }
  {
    ScopedEnv good(kName, "0");
    util::env_knob(kName, &size, 10);
    util::env_knob(kName, &number);
    util::env_knob(kName, &flag);
    util::env_knob(kName, &text);
    EXPECT_EQ(size, 0u);
    EXPECT_EQ(number, 0.0);
    EXPECT_FALSE(flag);
    EXPECT_EQ(text, "0");
  }
}

TEST(EnvKnob, MalformedValuePrintsOneLine) {
  const char* kName = "MFTI_TEST_KNOB";
  ScopedEnv bad(kName, "0x10");
  std::size_t size = 64;
  testing::internal::CaptureStderr();
  util::env_knob(kName, &size);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[mfti] malformed MFTI_TEST_KNOB='0x10' (want a decimal integer "
            ">= 0); keeping the default 64\n");
  double number = 1e-6;
  testing::internal::CaptureStderr();
  util::env_knob(kName, &number);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[mfti] malformed MFTI_TEST_KNOB='0x10' (want a finite number "
            ">= 0); keeping the default 1e-06\n");
  bool flag = true;
  testing::internal::CaptureStderr();
  util::env_knob(kName, &flag);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[mfti] malformed MFTI_TEST_KNOB='0x10' (want 1/0, on/off, "
            "true/false or yes/no); keeping the default on\n");
}

// Each of these was accepted with a wrong meaning before the shared
// parser: an infinite tolerance that switched the passivity check off, a
// compaction threshold of 2^64 - 1, tracing left on by "off", and a port
// the listener truncated to 80.
TEST(EnvKnob, MisreadValuesNowKeepTheirDefaults) {
  {
    ScopedEnv on("MFTI_VERIFY", "1");
    ScopedEnv tolerance("MFTI_VERIFY_TOLERANCE", "1e999");
    const auto policy = serving::verification_policy_from_env();
    ASSERT_TRUE(policy.has_value());
    EXPECT_EQ(policy->options().passivity_tolerance,
              serving::VerificationOptions{}.passivity_tolerance);
  }
  {
    ScopedEnv records("MFTI_JOURNAL_COMPACT_RECORDS", "-1");
    EXPECT_EQ(serving::RegistryPersistenceOptions::from_env()
                  .compact_min_records,
              serving::RegistryPersistenceOptions{}.compact_min_records);
  }
  for (const char* off : {"off", "false", "no", "0"}) {
    ScopedEnv trace("MFTI_TRACE", off);
    EXPECT_FALSE(obs::TraceOptions::from_env().enabled) << off;
  }
  {
    ScopedEnv port("MFTI_HTTP_PORT", "65616");
    EXPECT_EQ(net::ServingFrontOptions::from_env().port, 0);
  }
}

TEST(ServingFrontOptions, FromEnvReadsEveryKnob) {
  ScopedEnv port("MFTI_HTTP_PORT", "65535");
  ScopedEnv bind("MFTI_HTTP_BIND", "0.0.0.0");
  ScopedEnv workers("MFTI_HTTP_WORKERS", "7");
  ScopedEnv queued("MFTI_HTTP_MAX_QUEUED", "9");
  ScopedEnv idle("MFTI_HTTP_IDLE_TIMEOUT_MS", "1234");
  ScopedEnv body("MFTI_HTTP_MAX_BODY_BYTES", "4096");
  ScopedEnv qps("MFTI_HTTP_RATE_QPS", "2.5");
  ScopedEnv burst("MFTI_HTTP_RATE_BURST", "16");
  ScopedEnv weights("MFTI_HTTP_CLIENT_WEIGHTS",
                    "gold=4,free=1,=3,bad,zero=0,neg=-1,plus=+2");
  ScopedEnv token("MFTI_HTTP_ADMIN_TOKEN", "sekrit");
  ScopedEnv deadline("MFTI_HTTP_DEADLINE_MS", "250");
  ScopedEnv ring("MFTI_TRACE_RING", "5");

  const net::ServingFrontOptions opts = net::ServingFrontOptions::from_env();
  EXPECT_EQ(opts.port, 65535);
  EXPECT_EQ(opts.bind_address, "0.0.0.0");
  EXPECT_EQ(opts.workers, 7u);
  EXPECT_EQ(opts.max_queued, 9u);
  EXPECT_EQ(opts.idle_timeout_ms, 1234u);
  EXPECT_EQ(opts.limits.max_body_bytes, 4096u);
  EXPECT_EQ(opts.rate.tokens_per_second, 2.5);
  EXPECT_EQ(opts.rate.burst, 16.0);
  const std::map<std::string, std::size_t> expected_weights = {
      {"gold", 4}, {"free", 1}};
  EXPECT_EQ(opts.client_weights, expected_weights);
  EXPECT_EQ(opts.admin_token, "sekrit");
  EXPECT_EQ(opts.default_deadline_ms, 250u);
  EXPECT_EQ(opts.trace.ring_capacity, 5u);
}

TEST(ServingFrontOptions, FromEnvKeepsDefaultsForMalformedValues) {
  ScopedEnv workers("MFTI_HTTP_WORKERS", "-1");
  ScopedEnv body("MFTI_HTTP_MAX_BODY_BYTES", "18446744073709551616");
  ScopedEnv qps("MFTI_HTTP_RATE_QPS", "nan");
  ScopedEnv burst("MFTI_HTTP_RATE_BURST", "inf");
  ScopedEnv deadline("MFTI_HTTP_DEADLINE_MS", " 1");
  const net::ServingFrontOptions defaults;
  const net::ServingFrontOptions opts = net::ServingFrontOptions::from_env();
  EXPECT_EQ(opts.workers, defaults.workers);
  EXPECT_EQ(opts.limits.max_body_bytes, defaults.limits.max_body_bytes);
  EXPECT_EQ(opts.rate.tokens_per_second, defaults.rate.tokens_per_second);
  EXPECT_EQ(opts.rate.burst, defaults.rate.burst);
  EXPECT_EQ(opts.default_deadline_ms, defaults.default_deadline_ms);
}

TEST(RegistryPersistenceOptions, FromEnvReadsBothKnobs) {
  {
    ScopedEnv records("MFTI_JOURNAL_COMPACT_RECORDS", "3");
    ScopedEnv bytes("MFTI_JOURNAL_COMPACT_BYTES", "0");
    const auto opts = serving::RegistryPersistenceOptions::from_env();
    EXPECT_EQ(opts.compact_min_records, 3u);
    EXPECT_EQ(opts.compact_min_bytes, 0u);
  }
  {
    ScopedEnv records("MFTI_JOURNAL_COMPACT_RECORDS", "1x");
    ScopedEnv bytes("MFTI_JOURNAL_COMPACT_BYTES", "+1");
    const serving::RegistryPersistenceOptions defaults;
    const auto opts = serving::RegistryPersistenceOptions::from_env();
    EXPECT_EQ(opts.compact_min_records, defaults.compact_min_records);
    EXPECT_EQ(opts.compact_min_bytes, defaults.compact_min_bytes);
  }
}

// The values the end-to-end benchmark (perfbench/src/server.cpp) and the
// CI jobs set must keep their meaning under the strict parser.
TEST(EnvKnob, BenchmarkAndCiValuesParseAsBefore) {
  for (const auto& [text, enabled] :
       {std::pair{"0", false}, std::pair{"1", true}}) {
    ScopedEnv trace("MFTI_TRACE", text);
    EXPECT_EQ(obs::TraceOptions::from_env().enabled, enabled) << text;
  }
  {
    ScopedEnv on("MFTI_VERIFY", "1");
    ScopedEnv lo("MFTI_VERIFY_BAND_LO_HZ", "1e6");
    ScopedEnv hi("MFTI_VERIFY_BAND_HI_HZ", "1e9");
    ScopedEnv tolerance("MFTI_VERIFY_TOLERANCE", "0.02");
    const auto policy = serving::verification_policy_from_env();
    ASSERT_TRUE(policy.has_value());
    EXPECT_EQ(policy->options().band_lo_hz, 1e6);
    EXPECT_EQ(policy->options().band_hi_hz, 1e9);
    EXPECT_EQ(policy->options().passivity_tolerance, 0.02);
  }
  {
    ScopedEnv qps("MFTI_HTTP_RATE_QPS", "2");
    ScopedEnv burst("MFTI_HTTP_RATE_BURST", "4");
    const net::ServingFrontOptions opts = net::ServingFrontOptions::from_env();
    EXPECT_EQ(opts.rate.tokens_per_second, 2.0);
    EXPECT_EQ(opts.rate.burst, 4.0);
  }
  EXPECT_EQ(util::parse_double("1.02"), 1.02);  // MFTI_TRACE_OVERHEAD_GATE
  EXPECT_EQ(util::parse_uint("0", 65535), 0u);  // mfti_serve --port 0
  EXPECT_EQ(util::parse_uint("200"), 200u);     // mfti_client --rounds 200
  EXPECT_EQ(util::parse_uint("3"), 3u);         // mfti_client --models 3
}
