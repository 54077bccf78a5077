/// \file mfti_serve.cpp
/// \brief The out-of-process serving daemon: opens a durable model fleet
/// (`serving::ModelRegistry::open`, warm restart from `--dir`) and exposes
/// it over the HTTP/1.1 front (`net::ServingFront`).
///
///   mfti_serve --dir fleet/ [--port 8080] [--port-file port.txt]
///
/// Configuration beyond the flags comes from the `MFTI_HTTP_*` (front),
/// `MFTI_VERIFY_*` (publish gate) and `MFTI_TRACE_*` (request tracing,
/// docs/observability.md) environment knobs (see
/// docs/serving-protocol.md and docs/operations.md). `--port 0` binds an
/// ephemeral port; `--port-file` writes the resolved port for launchers
/// that need to discover it (the CI loopback job does). SIGTERM/SIGINT
/// trigger a graceful drain: in-flight requests complete, then the process
/// exits 0.

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "net/net.hpp"
#include "obs/build_info.hpp"
#include "serving/serving.hpp"
#include "util/knobs.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --dir <registry-dir> [--port <n>] "
               "[--port-file <path>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  namespace net = mfti::net;
  namespace serving = mfti::serving;

  std::string dir;
  std::string port_file;
  net::ServingFrontOptions opts = net::ServingFrontOptions::from_env();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dir" && i + 1 < argc) {
      dir = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      const char* text = argv[++i];
      const auto port = mfti::util::parse_uint(text, 65535);
      if (!port) {
        std::fprintf(stderr,
                     "mfti_serve: malformed --port '%s' (want 0..65535)\n",
                     text);
        return usage(argv[0]);
      }
      opts.port = static_cast<int>(*port);
    } else if (arg == "--port-file" && i + 1 < argc) {
      port_file = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (dir.empty()) return usage(argv[0]);

  serving::ModelRegistryOptions registry_opts;
  if (auto policy = serving::verification_policy_from_env()) {
    registry_opts.verification =
        std::make_shared<const serving::VerificationPolicy>(
            std::move(*policy));
    std::fprintf(stderr,
                 "mfti_serve: publish verification gate enabled "
                 "(MFTI_VERIFY)\n");
  }
  auto registry = serving::ModelRegistry::open(dir, registry_opts);
  if (!registry) {
    std::fprintf(stderr, "mfti_serve: cannot open registry '%s': %s\n",
                 dir.c_str(), registry.status().to_string().c_str());
    return 1;
  }
  serving::ServingEngine engine(**registry);
  net::ServingFront front(engine, **registry, opts);

  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);

  const mfti::api::Status started = front.start();
  if (!started.is_ok()) {
    std::fprintf(stderr, "mfti_serve: cannot start: %s\n",
                 started.to_string().c_str());
    return 1;
  }
  const mfti::obs::BuildInfo build = mfti::obs::build_info();
  std::fprintf(stderr,
               "mfti_serve: serving %zu model(s) from '%s' on port %d "
               "(version %s, %s, simd %s)\n",
               (*registry)->list().size(), dir.c_str(), front.port(),
               build.version.c_str(), build.compiler.c_str(),
               build.simd.c_str());
  if (opts.trace.enabled) {
    std::fprintf(stderr,
                 "mfti_serve: request tracing on (ring %zu, slow >= %g ms; "
                 "MFTI_TRACE=0 disables)\n",
                 opts.trace.ring_capacity, opts.trace.slow_threshold_ms);
  } else {
    std::fprintf(stderr, "mfti_serve: request tracing off (MFTI_TRACE=0)\n");
  }
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "mfti_serve: cannot write port file '%s'\n",
                   port_file.c_str());
      front.begin_drain();
      return 1;
    }
    std::fprintf(f, "%d\n", front.port());
    std::fclose(f);
  }

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "mfti_serve: draining\n");
  front.begin_drain();
  std::fprintf(stderr, "mfti_serve: drained, exiting\n");
  return 0;
}
