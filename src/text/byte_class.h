// The byte-class table behind the tokenizer's one scan and the pattern
// matchers. One 256-entry table fixed at compile time, so no result depends
// on the process locale: a process that calls setlocale still tokenizes and
// matches exactly as in the C locale. Every byte >= 0x80 is in no class.
// For tokens that makes it a word byte (neither space nor punctuation), so
// multi-byte UTF-8 stays inside a token; for patterns it is a non-word byte
// that no matcher accepts.
#ifndef CKR_TEXT_BYTE_CLASS_H_
#define CKR_TEXT_BYTE_CLASS_H_

#include <array>
#include <cstdint>

namespace ckr {

// The classes, one bit each; a byte's entry in kByteClassTable is the OR
// of its classes.
inline constexpr uint16_t kByteSpace = 1 << 0;  ///< ' ', '\t'..'\r' (isspace).
inline constexpr uint16_t kBytePunct = 1 << 1;  ///< Printable, not alnum or
                                                ///< space (ispunct).
inline constexpr uint16_t kByteDigit = 1 << 2;  ///< '0'..'9'.
inline constexpr uint16_t kByteAlpha = 1 << 3;  ///< 'A'..'Z', 'a'..'z'.
/// Alnum or '_': a pattern starts only after a byte without this class.
inline constexpr uint16_t kBytePatternWord = 1 << 4;
/// 'h', 'w': the first byte of "http://", "https://", "www.".
inline constexpr uint16_t kByteUrlStart = 1 << 5;
/// '+', '(', digits: the first byte of a phone number.
inline constexpr uint16_t kBytePhoneStart = 1 << 6;
/// Alnum or ". _ + -": a byte of an email's local part.
inline constexpr uint16_t kByteEmailLocal = 1 << 7;
/// Alnum or '-': a byte of a domain label.
inline constexpr uint16_t kByteDomain = 1 << 8;

namespace byte_class_internal {

constexpr std::array<uint16_t, 256> MakeByteClassTable() {
  std::array<uint16_t, 256> t{};
  t[' '] |= kByteSpace;
  for (int c = '\t'; c <= '\r'; ++c) t[c] |= kByteSpace;
  for (int c = '!'; c <= '~'; ++c) t[c] |= kBytePunct;
  for (int c = '0'; c <= '9'; ++c) {
    t[c] = kByteDigit | kBytePhoneStart;
  }
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kByteAlpha;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kByteAlpha;
  for (int c = 0; c < 256; ++c) {
    if ((t[c] & (kByteDigit | kByteAlpha)) != 0) {
      t[c] |= kBytePatternWord | kByteEmailLocal | kByteDomain;
    }
  }
  t['_'] |= kBytePatternWord;
  for (char c : {'.', '_', '+', '-'}) {
    t[static_cast<unsigned char>(c)] |= kByteEmailLocal;
  }
  t['-'] |= kByteDomain;
  t['h'] |= kByteUrlStart;
  t['w'] |= kByteUrlStart;
  t['+'] |= kBytePhoneStart;
  t['('] |= kBytePhoneStart;
  return t;
}

}  // namespace byte_class_internal

inline constexpr std::array<uint16_t, 256> kByteClassTable =
    byte_class_internal::MakeByteClassTable();

/// The classes of byte `c`.
inline uint16_t ClassOf(char c) {
  return kByteClassTable[static_cast<unsigned char>(c)];
}

/// True if byte `c` has any class in `mask`.
inline bool HasClass(char c, uint16_t mask) { return (ClassOf(c) & mask) != 0; }

}  // namespace ckr

#endif  // CKR_TEXT_BYTE_CLASS_H_
