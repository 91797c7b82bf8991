#pragma once

#include <cstdint>
#include <string>

namespace tkmc {

/// Durable-file primitives shared by every on-disk artifact: checkpoint
/// shards and manifests, remote placement maps, telemetry snapshots and
/// flight-recorder dumps. All failures surface as IoError.

/// Reads a whole file into memory.
std::string readFile(const std::string& path);

/// Crash-safe write: `contents` go to `<path>.tmp`, are flushed, and the
/// temp file is renamed over `path`. A crash at any point leaves either
/// the old file (perhaps next to a stray .tmp) or the new one — never a
/// torn file under the final name. Flushes the stdio buffer but does not
/// fsync: the guarantee is against process crashes, not power loss.
///
/// `tearPoint`, when non-null, names a fault point simulating a crash
/// mid-write: when it fires, half the contents reach the temp file, the
/// rename never happens, and IoError is thrown.
void writeFileAtomic(const std::string& path, const std::string& contents,
                     const char* tearPoint = nullptr);

/// Appends the `crc32 <8 hex digits>\n` footer that seals `body` (which
/// must end in a newline; the CRC covers it).
std::string sealWithCrc(std::string body);

/// Verifies the trailing footer written by sealWithCrc() and returns the
/// body it seals. `crcOut`, when given, receives the verified CRC.
/// `what` names the file in IoError messages (missing/unreadable footer,
/// CRC mismatch).
std::string verifiedBody(const std::string& contents, const std::string& what,
                         std::uint32_t* crcOut = nullptr);

}  // namespace tkmc
