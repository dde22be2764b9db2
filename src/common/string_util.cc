#include "common/string_util.h"

#include <cstdarg>
#include <cstdio>

namespace ckr {

std::vector<std::string> SplitString(std::string_view text,
                                     std::string_view delims) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || delims.find(text[i]) != std::string_view::npos) {
      if (i > start) out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string ToLowerAscii(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = AsciiToLower(c);
  return out;
}

std::string_view TrimView(std::string_view text, std::string_view strip_chars) {
  size_t b = text.find_first_not_of(strip_chars);
  if (b == std::string_view::npos) return std::string_view();
  size_t e = text.find_last_not_of(strip_chars);
  return text.substr(b, e - b + 1);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed < 0) {
    // Encoding error (e.g. an invalid multibyte sequence under %ls).
    // Return a distinguishable sentinel rather than silently formatting
    // nothing — callers embed the result in logs and JSON.
    va_end(args_copy);
    return "<format-error>";
  }
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    int written = std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    if (written < 0) out = "<format-error>";
  }
  va_end(args_copy);
  return out;
}

}  // namespace ckr
