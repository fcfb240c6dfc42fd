#pragma once

/// \file atomic_file.hpp
/// Crash-safe file replacement: write to a temp file beside the target, then
/// rename it over the target. A process killed mid-write leaves the old
/// file (or none) under the final name, never a torn one.

#include <functional>
#include <ostream>
#include <string>

namespace alert::util {

/// Write `path` through `write` into a uniquely named temp file in the same
/// directory, then rename it onto `path`. Returns false and logs when the
/// temp file cannot be opened, the stream is not good() after `write`, or
/// the rename fails; the temp file is removed and `path` is left untouched.
[[nodiscard]] bool write_file_atomic(
    const std::string& path, const std::function<void(std::ostream&)>& write);

}  // namespace alert::util
