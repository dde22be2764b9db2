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

// Byte classifiers equal to <cctype>'s in the C locale, which the library
// never leaves (nothing calls setlocale). Inline and branch-light: the
// tokenizer runs them on every byte of every document, and the <cctype>
// calls dispatch through the current locale's tables.

/// std::isspace: ' ', '\t', '\n', '\v', '\f', '\r'.
inline bool IsAsciiSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// std::ispunct: printable, neither alphanumeric nor space.
inline bool IsAsciiPunct(char c) {
  return (c >= '!' && c <= '/') || (c >= ':' && c <= '@') ||
         (c >= '[' && c <= '`') || (c >= '{' && c <= '~');
}

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

/// Strips surrounding (not internal) punctuation, per the paper's relevant-
/// term normalization ("surrounding punctuation characters are removed").
std::string_view StripSurroundingPunct(std::string_view token);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// True if `text` ends with `suffix`.
bool EndsWith(std::string_view text, std::string_view suffix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace ckr

#endif  // CKR_COMMON_STRING_UTIL_H_
