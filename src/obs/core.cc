#include "obs/core.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace svc::obs {

uint32_t ThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

uint64_t NowNs() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

void AppendJsonString(std::string& out, std::string_view text) {
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fwrite(content.data(), 1, content.size(), f) == content.size();
    // fclose flushes the buffered tail, so a full disk often fails here.
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
  }
  return ok;
}

}  // namespace svc::obs
