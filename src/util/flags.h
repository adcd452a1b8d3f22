#ifndef RFED_UTIL_FLAGS_H_
#define RFED_UTIL_FLAGS_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace rfed {

/// A parsed "host:port" endpoint (the value of --listen / --connect).
struct HostPort {
  std::string host;
  int port = 0;
};

/// Parses "host:port" into *out. Accepts a non-empty host (no validation
/// beyond non-emptiness — names resolve at connect time) and an all-digit
/// port in [0, 65535]; port 0 means "kernel-assigned" for listeners.
/// Returns false — leaving *out untouched — on a missing colon, empty
/// host, empty/non-numeric port, or a port out of range.
bool ParseHostPort(const std::string& text, HostPort* out);

/// Minimal --key=value / --key value command-line parser for the example
/// binaries and the experiment CLI. Every Get* call records its key as
/// read, so a binary that has read all the flags it understands can
/// reject the rest (UnreadKeys) as typos.
class FlagParser {
 public:
  /// Parses argv; aborts on malformed arguments (missing value).
  FlagParser(int argc, const char* const* argv);

  bool Has(const std::string& key) const;
  /// Typed accessors; an absent key yields the default. GetInt and
  /// GetDouble abort (RFED_CHECK, naming the flag) unless the whole value
  /// is a number — "2x" or "fast" is an error, not 2 or 0 — and GetInt
  /// also unless it fits an int. GetBool accepts true|false|1|0|yes|no.
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int GetInt(const std::string& key, int default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;

  /// Validated accessors for the serve binaries. Both abort (RFED_CHECK)
  /// with the offending value in the message — a malformed endpoint or an
  /// out-of-range count is a deployment configuration error, not
  /// something to limp past.
  HostPort GetHostPort(const std::string& key,
                       const std::string& default_value) const;
  /// GetInt that aborts unless the value lies in [min_value, max_value].
  int GetIntInRange(const std::string& key, int default_value, int min_value,
                    int max_value) const;

  /// Parsed keys that no Get* call has read yet.
  std::vector<std::string> UnreadKeys() const;

  /// Every Get* call so far, in call order: the key and the canonical
  /// text of the value it resolved to (parsed or default; numbers in
  /// round-trip form, bools as true/false). Reads from reads().size() at
  /// some point onward are exactly the flags one caller consumed.
  const std::vector<std::pair<std::string, std::string>>& reads() const {
    return reads_;
  }

 private:
  /// The raw value of `key`, or nullptr if absent; records nothing.
  const std::string* Find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::vector<std::pair<std::string, std::string>> reads_;
};

}  // namespace rfed

#endif  // RFED_UTIL_FLAGS_H_
