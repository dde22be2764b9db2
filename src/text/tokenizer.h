// Tokenization: the first pre-processing stage of the Contextual Shortcuts
// pipeline (paper Section II). Produces tokens with byte offsets so that
// downstream detectors can annotate the original text, and, in the same
// pass over the bytes, the pattern entities (emails, URLs, phones).
#ifndef CKR_TEXT_TOKENIZER_H_
#define CKR_TEXT_TOKENIZER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "text/pattern_detector.h"

namespace ckr {

/// A token with its position in the source text. The surface form is
/// `source.substr(begin, end - begin)`; it is not copied. `hash` is
/// HashToken(text), computed by the scan in the pass that lowers the
/// bytes, so a consumer that keys a table by the token (the runtime's
/// StemMemo) need not hash it again.
struct Token {
  std::string text;   ///< Normalized token (lower-cased).
  uint64_t hash = 0;  ///< HashToken(text).
  size_t begin = 0;   ///< Byte offset of the first character.
  size_t end = 0;     ///< Byte offset one past the last character.

  bool operator==(const Token& other) const = default;
};

/// Splits text on whitespace and normalizes each token: surrounding
/// punctuation is stripped ("(Obama," -> "obama"), letters are
/// lower-cased and a trailing "'s" is dropped. Tokens that become empty
/// are dropped; numbers are kept. Spaces and punctuation come from the
/// byte-class table (text/byte_class.h), which is the C locale's ASCII
/// classes for every process, and lower-casing changes only 'A'..'Z', so
/// bytes >= 0x80 are word characters and kept as they are.
std::vector<Token> Tokenize(std::string_view text);

/// The one scan over a document's bytes. Overwrites `*tokens` with
/// Tokenize(text) and, when `patterns` is non-null, `*patterns` with the
/// pattern entities, left to right and non-overlapping. A pattern is tried
/// at each position at or after the last match's end whose previous byte
/// is not alphanumeric or '_' (or at the start of the text); URL before
/// email (URLs can contain '@'), email before phone (emails can start with
/// digits). Each token's bytes are lowered and hashed eight at a time
/// (Token::hash); the scan reads nothing past the end of `text`. Both
/// vectors are reused in place, capacity and each slot's string buffer,
/// so steady-state scans of similar-sized documents perform no heap
/// allocations.
void ScanText(std::string_view text, std::vector<Token>* tokens,
              std::vector<PatternMatch>* patterns);

/// The hash ScanText stores in Token::hash: the bytes read as 8-byte words
/// in memory order, the last one zero-padded, each folded in with one
/// multiply over a start value that carries the length, then finished with
/// a shift-multiply-shift mix. Deterministic within a build; it is never
/// persisted, so nothing depends on its value across builds or platforms.
uint64_t HashToken(std::string_view text);

/// ScanText without patterns.
void TokenizeInto(std::string_view text, std::vector<Token>* out);

/// Convenience: normalized token strings only.
std::vector<std::string> TokenizeToStrings(std::string_view text);

/// Normalizes a free-text phrase into the canonical form used for concept
/// keys: lower-cased, punctuation-stripped tokens joined by single spaces.
std::string NormalizePhrase(std::string_view phrase);

/// Applies the Porter stemmer to every token of an already-normalized
/// phrase.
std::string StemPhrase(std::string_view phrase);

}  // namespace ckr

#endif  // CKR_TEXT_TOKENIZER_H_
