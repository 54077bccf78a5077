/// \file serving.hpp
/// \brief Umbrella header for the multi-model serving subsystem:
/// `ModelRegistry` (named, versioned snapshots, optional write-ahead
/// durability) + `RegistryJournal` (the journal behind `open`) +
/// `ServingEngine` (shared pool, batch routing) +
/// `AsyncFitter` (background fit queue with auto-publish). Builds on
/// `api::` — see docs/architecture.md.

#pragma once

#include "serving/async_fitter.hpp"      // IWYU pragma: export
#include "serving/model_registry.hpp"    // IWYU pragma: export
#include "serving/registry_journal.hpp"  // IWYU pragma: export
#include "serving/serving_engine.hpp"    // IWYU pragma: export
#include "serving/verification.hpp"      // IWYU pragma: export
