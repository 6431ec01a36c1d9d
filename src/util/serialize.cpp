#include "src/util/serialize.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace hdtn {

bool readFileBytes(const std::string& path, std::string* out,
                   std::string* error) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  // One sized read. A directory opens too, with a meaningless end offset,
  // so the size is only trusted for a regular file.
  const std::streamoff size = in.tellg();
  std::error_code ec;
  bool ok = size >= 0 && std::filesystem::is_regular_file(path, ec);
  std::string bytes;
  if (ok && size > 0) {
    bytes.resize(static_cast<std::size_t>(size));
    in.seekg(0);
    ok = static_cast<bool>(in.read(bytes.data(), size));
  }
  if (!ok) {
    if (error) *error = "read error on " + path;
    return false;
  }
  *out = std::move(bytes);
  return true;
}

bool writeFileAtomic(const std::string& path, std::string_view bytes,
                     std::string* error) {
  // Write-to-temp + rename so a crash mid-write never leaves a torn file at
  // `path`: readers see either the old snapshot or the new one, complete.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      if (error) *error = "cannot open " + tmp + " for writing";
      return false;
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      if (error) *error = "write error on " + tmp;
      std::remove(tmp.c_str());
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    if (error) *error = "cannot rename " + tmp + " to " + path + ": " +
                        ec.message();
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace hdtn
