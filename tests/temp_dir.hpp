#pragma once

/// \file temp_dir.hpp
/// A private scratch directory for one test, removed with everything in it
/// when the test ends. mkdtemp picks the name, so test cases running at the
/// same time — ctest -j runs every gtest case in its own process — never
/// share a directory, whatever tag they pass.

#include <gtest/gtest.h>
#include <stdlib.h>  // mkdtemp (POSIX)

#include <cerrno>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>

namespace alert::test_support {

class TempDir {
 public:
  /// Creates `<gtest temp dir>/<tag>XXXXXX`; throws if that fails.
  explicit TempDir(const std::string& tag) {
    std::string name =
        (std::filesystem::path(::testing::TempDir()) / (tag + "XXXXXX"))
            .string();
    if (::mkdtemp(name.data()) == nullptr) {
      throw std::system_error(errno, std::generic_category(),
                              "mkdtemp " + name);
    }
    path_ = std::move(name);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  /// Path of `name` inside the directory.
  [[nodiscard]] std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace alert::test_support
