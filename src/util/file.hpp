// Whole-file output for reports and bench results.
#pragma once

#include <string>
#include <string_view>

namespace pnet::util {

/// Writes `bytes` as the whole content of `path` ("-" means stdout).
/// Returns false when the path cannot be opened or the write fails.
///
/// A regular file is rewritten in place and then cut to the written size,
/// never truncated to zero first: on ext4 (auto_da_alloc) a truncate to
/// zero forces a flush on close, tens of ms per rewrite of the same file.
/// Device paths such as /dev/stdout and /dev/null are written as they are.
bool write_file(const std::string& path, std::string_view bytes);

}  // namespace pnet::util
