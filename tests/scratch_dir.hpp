// Per-test scratch directory for files a test must put on the host file
// system (store backing images): <tmp>/usk-<Suite>.<Test>-<pid>/, so
// concurrent test processes (ctest -j, the label soaks re-running a
// binary) never share a path. Created empty, removed with its contents.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace usk::test {

class ScratchDir {
 public:
  ScratchDir() {
    const ::testing::TestInfo* t =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           ("usk-" + std::string(t->test_suite_name()) + "." + t->name() +
            "-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Absolute path of `file` inside the directory.
  [[nodiscard]] std::string path(const std::string& file) const {
    return (dir_ / file).string();
  }

 private:
  std::filesystem::path dir_;
};

}  // namespace usk::test
