// Minimal JSON reader for the server's /find, /metrics and /healthz bodies.
// The benchmark parses answers with its own code so that a fault in the
// server's serializer shows up as a failed check, not as agreement between
// two copies of the same bug.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace teambench {

/// \brief One parsed JSON value.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  /// Member `key` of an object, or nullptr (also for non-objects).
  const Json* Find(const std::string& key) const;
  /// Number member `key`, or `fallback` when absent or not a number.
  double NumberOr(const std::string& key, double fallback) const;
};

/// Parses `text` (one value, surrounding whitespace allowed). Returns false
/// and sets `error` on malformed input.
bool ParseJson(std::string_view text, Json* out, std::string* error);

}  // namespace teambench
