#include "util/flags.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>

#include "util/check.h"

namespace rfed {

bool ParseHostPort(const std::string& text, HostPort* out) {
  const size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  const std::string host = text.substr(0, colon);
  const std::string port_text = text.substr(colon + 1);
  if (port_text.empty() || port_text.size() > 5) return false;
  int port = 0;
  for (char c : port_text) {
    if (c < '0' || c > '9') return false;
    port = port * 10 + (c - '0');
  }
  if (port > 65535) return false;
  out->host = host;
  out->port = port;
  return true;
}

FlagParser::FlagParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    RFED_CHECK(arg.rfind("--", 0) == 0) << "expected --flag, got " << arg;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

bool FlagParser::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

const std::string* FlagParser::Find(const std::string& key) const {
  auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

std::string FlagParser::GetString(const std::string& key,
                                  const std::string& default_value) const {
  const std::string* text = Find(key);
  const std::string value = text == nullptr ? default_value : *text;
  reads_.emplace_back(key, value);
  return value;
}

int FlagParser::GetInt(const std::string& key, int default_value) const {
  const std::string* text = Find(key);
  int value = default_value;
  if (text != nullptr) {
    errno = 0;
    char* end = nullptr;
    const long parsed = std::strtol(text->c_str(), &end, 10);
    RFED_CHECK(!text->empty() && *end == '\0' && errno == 0 &&
               parsed >= INT_MIN && parsed <= INT_MAX)
        << "--" << key << " expects an integer, got '" << *text << "'";
    value = static_cast<int>(parsed);
  }
  reads_.emplace_back(key, std::to_string(value));
  return value;
}

double FlagParser::GetDouble(const std::string& key,
                             double default_value) const {
  const std::string* text = Find(key);
  double value = default_value;
  if (text != nullptr) {
    char* end = nullptr;
    value = std::strtod(text->c_str(), &end);
    RFED_CHECK(!text->empty() && *end == '\0')
        << "--" << key << " expects a number, got '" << *text << "'";
  }
  char canonical[32];
  std::snprintf(canonical, sizeof(canonical), "%.17g", value);
  reads_.emplace_back(key, canonical);
  return value;
}

bool FlagParser::GetBool(const std::string& key, bool default_value) const {
  const std::string* text = Find(key);
  bool value = default_value;
  if (text != nullptr) {
    const bool yes = *text == "true" || *text == "1" || *text == "yes";
    const bool no = *text == "false" || *text == "0" || *text == "no";
    RFED_CHECK(yes || no) << "--" << key
                          << " expects true|false|1|0|yes|no, got '" << *text
                          << "'";
    value = yes;
  }
  reads_.emplace_back(key, value ? "true" : "false");
  return value;
}

HostPort FlagParser::GetHostPort(const std::string& key,
                                 const std::string& default_value) const {
  const std::string text = GetString(key, default_value);
  HostPort hp;
  RFED_CHECK(ParseHostPort(text, &hp))
      << "--" << key << " expects host:port with port in [0, 65535], got '"
      << text << "'";
  return hp;
}

int FlagParser::GetIntInRange(const std::string& key, int default_value,
                              int min_value, int max_value) const {
  const int value = GetInt(key, default_value);
  RFED_CHECK(value >= min_value && value <= max_value)
      << "--" << key << " must be in [" << min_value << ", " << max_value
      << "], got " << value;
  return value;
}

std::vector<std::string> FlagParser::UnreadKeys() const {
  std::vector<std::string> unread;
  for (const auto& [key, value] : values_) {
    bool read = false;
    for (const auto& r : reads_) read = read || r.first == key;
    if (!read) unread.push_back(key);
  }
  return unread;
}

}  // namespace rfed
