// Unit tests of the HTTP serving front's protocol layer (src/net): the
// StatusCode -> HTTP mapping table (pinned for every enum value), the
// incremental request/response parsers with their strict limits, the JSON
// codec (bit-exact double round trip), the per-client token-bucket rate
// limiter (injected time), and the weighted-fair ready queue.

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "net/net.hpp"

namespace api = mfti::api;
namespace net = mfti::net;

// --- StatusCode -> HTTP table -----------------------------------------------

TEST(StatusHttp, EveryStatusCodeIsPinned) {
  // Growing the enum without extending the table breaks the -Wswitch build;
  // this test additionally pins the chosen values so a remap is a
  // deliberate, reviewed change.
  for (std::size_t i = 0; i < api::kNumStatusCodes; ++i) {
    const auto code = static_cast<api::StatusCode>(i);
    const net::HttpStatus http = net::http_status_for(code);
    switch (code) {
      case api::StatusCode::Ok:
        EXPECT_EQ(http.code, 200);
        break;
      case api::StatusCode::InvalidArgument:
        EXPECT_EQ(http.code, 400);
        break;
      case api::StatusCode::Cancelled:
        EXPECT_EQ(http.code, 408);
        break;
      case api::StatusCode::NotFound:
        EXPECT_EQ(http.code, 404);
        break;
      case api::StatusCode::NumericalError:
        EXPECT_EQ(http.code, 422);
        break;
      case api::StatusCode::Unimplemented:
        EXPECT_EQ(http.code, 501);
        break;
      case api::StatusCode::Internal:
        EXPECT_EQ(http.code, 500);
        break;
    }
    EXPECT_NE(http.reason, nullptr);
    EXPECT_STRNE(http.reason, "");
  }
}

TEST(StatusHttp, ReasonPhrases) {
  EXPECT_STREQ(net::http_reason(200), "OK");
  EXPECT_STREQ(net::http_reason(429), "Too Many Requests");
  EXPECT_STREQ(net::http_reason(777), "Unknown");
}

// --- request parser ---------------------------------------------------------

TEST(HttpParser, SimpleGet) {
  net::HttpRequestParser parser;
  const auto state =
      parser.feed("GET /v1/models?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_EQ(state, net::HttpRequestParser::State::Complete);
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().target, "/v1/models?verbose=1");
  EXPECT_EQ(parser.request().path(), "/v1/models");
  EXPECT_EQ(parser.request().header("host"), "x");
  EXPECT_TRUE(parser.request().keep_alive());
}

TEST(HttpParser, PostBodyByteByByte) {
  // The parser is incremental: feeding one byte at a time must land on the
  // same result as one chunk.
  const std::string wire =
      "POST /v1/eval HTTP/1.1\r\nContent-Length: 4\r\n"
      "X-API-Key: k1\r\n\r\nabcd";
  net::HttpRequestParser parser;
  auto state = net::HttpRequestParser::State::NeedMore;
  for (const char c : wire) {
    state = parser.feed(std::string_view(&c, 1));
  }
  ASSERT_EQ(state, net::HttpRequestParser::State::Complete);
  EXPECT_EQ(parser.request().body, "abcd");
  EXPECT_EQ(parser.request().header("x-api-key"), "k1");
}

TEST(HttpParser, ConnectionCloseDisablesKeepAlive) {
  net::HttpRequestParser parser;
  parser.feed("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  ASSERT_EQ(parser.state(), net::HttpRequestParser::State::Complete);
  EXPECT_FALSE(parser.request().keep_alive());
}

TEST(HttpParser, PipelinedResidueSurvivesReset) {
  net::HttpRequestParser parser;
  const auto state = parser.feed(
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
  ASSERT_EQ(state, net::HttpRequestParser::State::Complete);
  EXPECT_EQ(parser.request().target, "/a");
  parser.reset();
  ASSERT_EQ(parser.feed(""), net::HttpRequestParser::State::Complete);
  EXPECT_EQ(parser.request().target, "/b");
}

TEST(HttpParser, RejectsUnknownMethodWith405) {
  net::HttpRequestParser parser;
  EXPECT_EQ(parser.feed("BREW /coffee HTTP/1.1\r\n\r\n"),
            net::HttpRequestParser::State::Error);
  EXPECT_EQ(parser.error_status(), 405);
}

TEST(HttpParser, RejectsTransferEncodingWith501) {
  net::HttpRequestParser parser;
  EXPECT_EQ(parser.feed("POST / HTTP/1.1\r\nTransfer-Encoding: "
                        "chunked\r\n\r\n"),
            net::HttpRequestParser::State::Error);
  EXPECT_EQ(parser.error_status(), 501);
}

TEST(HttpParser, RejectsOversizedBodyWith413) {
  net::HttpLimits limits;
  limits.max_body_bytes = 8;
  net::HttpRequestParser parser(limits);
  EXPECT_EQ(parser.feed("POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n"),
            net::HttpRequestParser::State::Error);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParser, RejectsOversizedHeadersWith431) {
  net::HttpLimits limits;
  limits.max_header_bytes = 64;
  net::HttpRequestParser parser(limits);
  std::string wire = "GET / HTTP/1.1\r\nX-Pad: ";
  wire.append(200, 'a');
  wire += "\r\n\r\n";
  EXPECT_EQ(parser.feed(wire), net::HttpRequestParser::State::Error);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParser, RejectsMalformedRequestLineWith400) {
  net::HttpRequestParser parser;
  EXPECT_EQ(parser.feed("GET\r\n\r\n"),
            net::HttpRequestParser::State::Error);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParser, RejectsConflictingContentLengthsWith400) {
  // Two differing Content-Length headers enable request smuggling when a
  // proxy in front honours the other one — must refuse, not last-wins.
  net::HttpRequestParser parser;
  EXPECT_EQ(parser.feed("POST / HTTP/1.1\r\nContent-Length: 4\r\n"
                        "Content-Length: 2\r\n\r\nabcd"),
            net::HttpRequestParser::State::Error);
  EXPECT_EQ(parser.error_status(), 400);

  // Repeated but *identical* values are harmless (RFC 7230 §3.3.2).
  net::HttpRequestParser lenient;
  ASSERT_EQ(lenient.feed("POST / HTTP/1.1\r\nContent-Length: 4\r\n"
                         "Content-Length: 4\r\n\r\nabcd"),
            net::HttpRequestParser::State::Complete);
  EXPECT_EQ(lenient.request().body, "abcd");
}

TEST(HttpParser, ResponseRoundTrip) {
  net::HttpResponse response;
  response.status = 429;
  response.headers["Retry-After"] = "1";
  response.body = "busy";
  const std::string wire = net::serialize_response(response);

  net::HttpResponseParser parser;
  ASSERT_EQ(parser.feed(wire), net::HttpResponseParser::State::Complete);
  EXPECT_EQ(parser.response().status, 429);
  EXPECT_EQ(parser.response().header("retry-after"), "1");
  EXPECT_EQ(parser.response().body, "busy");
}

// --- JSON codec -------------------------------------------------------------

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      R"({"a":[1,2.5,true,null],"b":{"nested":"x\"y"},"c":-1e-3})";
  auto parsed = net::parse_json(text);
  ASSERT_TRUE(parsed) << parsed.status().to_string();
  auto again = net::parse_json(parsed->dump());
  ASSERT_TRUE(again);
  EXPECT_EQ(parsed->dump(), again->dump());
  EXPECT_EQ(parsed->find("a")->size(), 4u);
  EXPECT_EQ(parsed->find("b")->find("nested")->as_string(), "x\"y");
}

TEST(Json, DoublesRoundTripBitExactly) {
  // %.17g serialization is what makes the HTTP loopback parity *exact*:
  // any double that goes to the wire and back must compare equal bitwise.
  const std::vector<double> values = {0.0,
                                      -0.0,
                                      1.0 / 3.0,
                                      6.02214076e23,
                                      -2.2250738585072014e-308,
                                      3.141592653589793,
                                      1e-300,
                                      123456789.123456789};
  for (const double v : values) {
    net::Json array = net::Json::array();
    array.push_back(net::Json(v));
    auto parsed = net::parse_json(array.dump());
    ASSERT_TRUE(parsed) << array.dump();
    EXPECT_EQ(parsed->at(0).as_number(), v) << array.dump();
  }
}

TEST(Json, UnderflowAndSubnormalsStillParse) {
  auto parsed = net::parse_json("[1e-400,4.9406564584124654e-324,-0,1E+2]");
  ASSERT_TRUE(parsed) << parsed.status().to_string();
  EXPECT_EQ(parsed->at(0).as_number(), 0.0);
  EXPECT_EQ(parsed->at(1).as_number(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(parsed->at(2).as_number(), 0.0);
  EXPECT_EQ(parsed->at(3).as_number(), 100.0);
}

TEST(Json, UnicodeEscapes) {
  auto parsed = net::parse_json(R"(["Aé😀"])");
  ASSERT_TRUE(parsed) << parsed.status().to_string();
  EXPECT_EQ(parsed->at(0).as_string(), "A\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(Json, DepthLimit) {
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += "[";
  for (int i = 0; i < 64; ++i) deep += "]";
  const auto parsed = net::parse_json(deep);
  ASSERT_FALSE(parsed);
  EXPECT_EQ(parsed.status().code(), api::StatusCode::InvalidArgument);
}

TEST(Json, RejectsTrailingGarbage) {
  EXPECT_FALSE(net::parse_json("{} {}"));
  EXPECT_FALSE(net::parse_json("[1,]"));
  EXPECT_FALSE(net::parse_json(""));
  // Numbers follow RFC 8259 and must be finite.
  for (const char* text :
       {"[1e999]", "[-1e999]", "[+1]", "[.5]", "[1.]", "[01]"}) {
    EXPECT_FALSE(net::parse_json(text)) << text;
  }
}

// --- rate limiter -----------------------------------------------------------

TEST(RateLimiter, BurstThenRefusalThenRefill) {
  net::RateLimiter limiter({.tokens_per_second = 2.0, .burst = 3.0});
  double now = 100.0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(limiter.admit("k", now).admitted) << i;
  }
  const auto refused = limiter.admit("k", now);
  EXPECT_FALSE(refused.admitted);
  EXPECT_NEAR(refused.retry_after_seconds, 0.5, 1e-12);

  now += 0.5;  // exactly one token refilled
  EXPECT_TRUE(limiter.admit("k", now).admitted);
  EXPECT_FALSE(limiter.admit("k", now).admitted);
}

TEST(RateLimiter, KeysAreIsolated) {
  net::RateLimiter limiter({.tokens_per_second = 1.0, .burst = 1.0});
  EXPECT_TRUE(limiter.admit("a", 0.0).admitted);
  EXPECT_FALSE(limiter.admit("a", 0.0).admitted);
  // A different key has its own full bucket.
  EXPECT_TRUE(limiter.admit("b", 0.0).admitted);
}

TEST(RateLimiter, DisabledWhenRateIsZero) {
  net::RateLimiter limiter({.tokens_per_second = 0.0, .burst = 1.0});
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(limiter.admit("k", 0.0).admitted);
  }
  EXPECT_EQ(limiter.bucket_count(), 0u);
}

TEST(RateLimiter, IdleFullBucketsAreReclaimed) {
  net::RateLimiter limiter({.tokens_per_second = 1.0, .burst = 2.0});
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(limiter.admit("churn" + std::to_string(i), 0.0).admitted);
  }
  // Exhaust one bucket; its refusal sweeps the idle (refilled-to-full)
  // buckets of the churned keys.
  limiter.admit("hot", 1000.0);
  limiter.admit("hot", 1000.0);
  limiter.admit("hot", 1000.0);
  EXPECT_LE(limiter.bucket_count(), 2u);
}

// --- fair queue -------------------------------------------------------------

namespace {

net::ReadyConn conn_for(const std::string& key) {
  net::ReadyConn conn;
  conn.client_key = key;
  return conn;
}

}  // namespace

TEST(FairQueue, BoundedPushShedsOverflow) {
  net::FairQueue queue(2, {});
  auto a = conn_for("a");
  auto b = conn_for("b");
  auto c = conn_for("c");
  EXPECT_TRUE(queue.try_push(a));
  EXPECT_TRUE(queue.try_push(b));
  EXPECT_FALSE(queue.try_push(c));  // full: caller keeps the connection
  EXPECT_EQ(queue.size(), 2u);
}

TEST(FairQueue, WeightedInterleaving) {
  // Client "big" (weight 2) enqueues 6 connections, "small" (weight 1)
  // enqueues 3. Fair service must interleave roughly 2:1 — "small" may
  // never wait for all of "big" to drain first.
  net::FairQueue queue(64, {{"big", 2}});
  for (int i = 0; i < 6; ++i) {
    auto conn = conn_for("big");
    ASSERT_TRUE(queue.try_push(conn));
  }
  for (int i = 0; i < 3; ++i) {
    auto conn = conn_for("small");
    ASSERT_TRUE(queue.try_push(conn));
  }
  std::vector<std::string> order;
  for (int i = 0; i < 9; ++i) {
    auto conn = queue.pop();
    ASSERT_TRUE(conn.has_value());
    order.push_back(conn->client_key);
  }
  // Within the first 5 pickups both clients must have appeared, and
  // "big" must have at least twice the pickups of "small" overall only by
  // running out of "small" work, not by starving it early.
  std::size_t small_in_first_half = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    if (order[i] == "small") ++small_in_first_half;
  }
  EXPECT_GE(small_in_first_half, 1u) << "small client starved";
  EXPECT_EQ(queue.size(), 0u);
}

TEST(FairQueue, RequeueAfterClientChurnStaysPoppable) {
  // Regression: three clients are each served once (leaving three empty
  // per-client entries behind), then only one connection is requeued. The
  // scan bound used to be re-evaluated as the empty entries were erased,
  // shrinking below the iterations needed — pop gave up with the ready
  // connection still queued and the request hung.
  net::FairQueue queue(8, {});
  for (const char* key : {"a", "b", "c"}) {
    auto conn = conn_for(key);
    ASSERT_TRUE(queue.try_push(conn));
  }
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(queue.pop().has_value());
  auto keep_alive = conn_for("c");
  ASSERT_TRUE(queue.push_requeued(keep_alive));
  ASSERT_EQ(queue.size(), 1u);
  // Shutdown first so a regressed pop returns empty instead of blocking
  // this test forever on the condvar.
  queue.shutdown();
  auto popped = queue.pop();
  ASSERT_TRUE(popped.has_value()) << "ready connection stuck in the queue";
  EXPECT_EQ(popped->client_key, "c");
  EXPECT_EQ(queue.size(), 0u);
}

TEST(FairQueue, IdlePollBackoffGrowsAndCaps) {
  EXPECT_EQ(net::idle_poll_backoff_ms(0), 1);
  EXPECT_EQ(net::idle_poll_backoff_ms(1), 2);
  EXPECT_EQ(net::idle_poll_backoff_ms(4), 16);
  EXPECT_EQ(net::idle_poll_backoff_ms(5), 32);
  EXPECT_EQ(net::idle_poll_backoff_ms(1000), 32);
}

TEST(FairQueue, ShutdownDrainsThenReturnsEmpty) {
  net::FairQueue queue(8, {});
  auto a = conn_for("a");
  ASSERT_TRUE(queue.try_push(a));
  queue.shutdown();
  EXPECT_TRUE(queue.pop().has_value());   // drains the queued connection
  EXPECT_FALSE(queue.pop().has_value());  // then reports shutdown
  auto late = conn_for("b");
  EXPECT_FALSE(queue.try_push(late));     // no admission after shutdown
}
