// Scoped environment variable for tests that drive env-configured code
// (DedupConfig::from_env reads EFD_DEDUP_* whenever an ExploreConfig is
// built).
#pragma once

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace efd {

/// Sets `key` to `value` for one scope and restores the old value (or
/// unsets it) on exit. Tests run single-threaded, and no pool worker is
/// alive while a guard is built or destroyed.
class EnvGuard {
 public:
  EnvGuard(std::string key, const std::string& value) : key_(std::move(key)) {
    if (const char* old = std::getenv(key_.c_str())) old_ = old;
    ::setenv(key_.c_str(), value.c_str(), 1);
  }
  ~EnvGuard() {
    if (old_) {
      ::setenv(key_.c_str(), old_->c_str(), 1);
    } else {
      ::unsetenv(key_.c_str());
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  std::string key_;
  std::optional<std::string> old_;
};

}  // namespace efd
