// Temp file paths for tests. ctest runs every gtest case as its own
// process, several at once under -j, so a fixed name under TempDir() is
// shared by whichever cases run concurrently and one clobbers another's
// file. TestTempPath adds the running test's suite and name and the
// process id, so no two running cases share a path.
#ifndef LIMONCELLO_TESTS_TEST_TEMP_PATH_H_
#define LIMONCELLO_TESTS_TEST_TEMP_PATH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

namespace limoncello {

namespace test_temp_path_internal {

// Every path handed out, removed when the test process exits normally.
struct Handed {
  std::vector<std::string> paths;
  ~Handed() {
    for (const std::string& path : paths) (void)std::remove(path.c_str());
  }
};

inline Handed& HandedPaths() {
  static Handed handed;
  return handed;
}

}  // namespace test_temp_path_internal

// <TempDir>/<suite>.<test>.<pid>.<name>; '/' in parameterized suite and
// test names becomes '_'. Call it from inside a test (or its fixture).
inline std::string TestTempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string unique =
      std::string(info->test_suite_name()) + "." + info->name();
  for (char& c : unique) {
    if (c == '/') c = '_';
  }
  std::string path = ::testing::TempDir();
  if (!path.empty() && path.back() != '/') path += '/';
  path += unique + "." + std::to_string(::getpid()) + "." + name;
  test_temp_path_internal::HandedPaths().paths.push_back(path);
  return path;
}

}  // namespace limoncello

#endif  // LIMONCELLO_TESTS_TEST_TEMP_PATH_H_
