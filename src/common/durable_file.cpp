#include "common/durable_file.hpp"

#include <cstdio>
#include <filesystem>
#include <system_error>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"

namespace tkmc {

std::string readFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw IoError("cannot open file: " + path);
  std::string contents;
  char buffer[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0)
    contents.append(buffer, got);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) throw IoError("failed reading file: " + path);
  return contents;
}

void writeFileAtomic(const std::string& path, const std::string& contents,
                     const char* tearPoint) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throw IoError("cannot open temp file for writing: " + tmp);
  if (tearPoint != nullptr && faultFires(tearPoint)) {
    std::fwrite(contents.data(), 1, contents.size() / 2, f);
    std::fclose(f);
    throw IoError(std::string("injected write tear (") + tearPoint +
                  "): " + tmp);
  }
  const std::size_t written =
      std::fwrite(contents.data(), 1, contents.size(), f);
  const bool ok = written == contents.size() && std::fflush(f) == 0 &&
                  std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) {
    std::remove(tmp.c_str());
    throw IoError("failed writing temp file: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    throw IoError("cannot move file into place at " + path + ": " +
                  ec.message());
  }
}

std::string sealWithCrc(std::string body) {
  char line[32];
  std::snprintf(line, sizeof(line), "crc32 %08x\n",
                crc32(body.data(), body.size()));
  return body + line;
}

std::string verifiedBody(const std::string& contents, const std::string& what,
                         std::uint32_t* crcOut) {
  const std::string::size_type foot = contents.rfind("\ncrc32 ");
  if (foot == std::string::npos)
    throw IoError("missing CRC32 footer (truncated?): " + what);
  std::string body = contents.substr(0, foot + 1);
  unsigned stored = 0;
  if (std::sscanf(contents.c_str() + foot + 1, "crc32 %8x", &stored) != 1)
    throw IoError("CRC32 footer unreadable: " + what);
  const std::uint32_t computed = crc32(body.data(), body.size());
  if (computed != stored) {
    char detail[64];
    std::snprintf(detail, sizeof(detail), "(stored %08x, computed %08x)",
                  stored, computed);
    throw IoError("failed CRC32 check " + std::string(detail) + ": " + what);
  }
  if (crcOut != nullptr) *crcOut = computed;
  return body;
}

}  // namespace tkmc
