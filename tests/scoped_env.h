// Scoped environment-variable override shared by test binaries
// (header-only, test-local).
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace digs::testing_env {

// Sets an environment variable for one scope and restores its previous
// value (or absence) on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

}  // namespace digs::testing_env
