// Temporary-file helpers for the tests that write trace files.
#ifndef QUANTO_TESTS_TEST_FILES_H_
#define QUANTO_TESTS_TEST_FILES_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace quanto {

// A temporary file of this process: ctest runs a test and the sanitizer
// aggregate that includes it concurrently, so fixed names would collide.
inline std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "." +
         std::to_string(::getpid()) + ".qnto";
}

inline std::vector<uint8_t> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

inline void WriteBytes(const std::string& path,
                       const std::vector<uint8_t>& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

}  // namespace quanto

#endif  // QUANTO_TESTS_TEST_FILES_H_
