#include "util/atomic_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "temp_dir.hpp"

namespace alert::util {
namespace {

namespace fs = std::filesystem;
using test_support::TempDir;

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

/// Only the named entry remains in `dir`: no temp file was left behind.
void expect_only(const std::string& dir, const std::string& name) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string(), name);
  }
}

TEST(WriteFileAtomic, FailedWriteLeavesTargetAndNoTemp) {
  TempDir dir("alertsim-atomic-test-");
  const std::string target = dir.path() + "/out.json";
  ASSERT_TRUE(write_file_atomic(
      target, [](std::ostream& out) { out << "{\"old\": true}\n"; }));
  EXPECT_EQ(read_all(target), "{\"old\": true}\n");

  // A writer that fails halfway: the stream goes bad after a partial write.
  EXPECT_FALSE(write_file_atomic(target, [](std::ostream& out) {
    out << "{\"new\": ";
    out.setstate(std::ios::badbit);
  }));
  EXPECT_EQ(read_all(target), "{\"old\": true}\n");
  expect_only(dir.path(), "out.json");
}

TEST(WriteFileAtomic, RenameOntoDirectoryFailsAndLeavesNoTemp) {
  TempDir dir("alertsim-atomic-test-");
  const std::string target = dir.path() + "/taken";
  fs::create_directory(target);
  EXPECT_FALSE(write_file_atomic(
      target, [](std::ostream& out) { out << "payload\n"; }));
  EXPECT_TRUE(fs::is_directory(target));
  expect_only(dir.path(), "taken");
}

}  // namespace
}  // namespace alert::util
