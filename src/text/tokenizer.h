// Tokenization: the first pre-processing stage of the Contextual Shortcuts
// pipeline (paper Section II). Produces tokens with byte offsets so that
// downstream detectors can annotate the original text.
#ifndef CKR_TEXT_TOKENIZER_H_
#define CKR_TEXT_TOKENIZER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace ckr {

/// A token with its position in the source text. The surface form is
/// `source.substr(begin, end - begin)`; it is not copied.
struct Token {
  std::string text;   ///< Normalized token (lower-cased).
  size_t begin = 0;   ///< Byte offset of the first character.
  size_t end = 0;     ///< Byte offset one past the last character.

  bool operator==(const Token& other) const = default;
};

/// Splits text on whitespace and normalizes each token: surrounding
/// punctuation is stripped ("(Obama," -> "obama"), letters are
/// lower-cased and a trailing "'s" is dropped. Tokens that become empty
/// are dropped; numbers are kept. Spaces, punctuation and case follow
/// <cctype> in the C locale, so bytes >= 0x80 are word characters.
std::vector<Token> Tokenize(std::string_view text);

/// Buffer-reuse variant of Tokenize for hot paths: overwrites `*out`
/// in place, reusing both the vector capacity and each slot's string
/// buffer, so steady-state tokenization of similar-sized documents
/// performs no heap allocations.
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
