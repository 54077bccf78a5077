// One environment variable set for the lifetime of a scope and restored
// (or unset again) on exit, so the `from_env` tests cannot leak state into
// each other. GoogleTest runs the tests of one binary serially.

#pragma once

#include <cstdlib>
#include <optional>
#include <string>

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* previous = std::getenv(name)) previous_ = previous;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (previous_) {
      ::setenv(name_.c_str(), previous_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> previous_;
};
