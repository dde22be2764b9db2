// Small string helpers used throughout the library.
#ifndef CKR_COMMON_STRING_UTIL_H_
#define CKR_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace ckr {

/// Splits on any character in `delims`, dropping empty pieces.
std::vector<std::string> SplitString(std::string_view text,
                                     std::string_view delims);

/// Joins pieces with `sep`.
std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view sep);

/// std::tolower: maps 'A'..'Z' to 'a'..'z', every other byte to itself.
inline char AsciiToLower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c + ('a' - 'A')) : c;
}

/// ASCII lower-casing (the library's text domain is ASCII by construction).
std::string ToLowerAscii(std::string_view text);

/// Strips leading/trailing characters found in `strip_chars` (default:
/// whitespace).
std::string_view TrimView(std::string_view text,
                          std::string_view strip_chars = " \t\r\n");

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// True if `text` ends with `suffix`.
bool EndsWith(std::string_view text, std::string_view suffix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace ckr

#endif  // CKR_COMMON_STRING_UTIL_H_
