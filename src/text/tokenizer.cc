#include "text/tokenizer.h"

#include <algorithm>
#include <cstdint>

#include "common/string_util.h"
#include "text/byte_class.h"
#include "text/porter_stemmer.h"

namespace ckr {
namespace {

// Tries the matchers at candidate position `p` of the piece ending at
// `piece_end`. On a hit, appends it to slot `*count` of `*out` and returns
// its end; otherwise returns `p`. `*next_at` is the first '@' at or after
// an earlier candidate, or npos.
size_t TryPattern(std::string_view text, size_t p, size_t piece_end,
                  size_t* next_at, std::vector<PatternMatch>* out,
                  size_t* count) {
  const uint16_t cls = ClassOf(text[p]);
  if (*next_at < p) *next_at = text.find('@', p);
  size_t end = p;
  PatternKind kind;
  if ((cls & kByteUrlStart) != 0 && (end = MatchUrl(text, p)) != p) {
    kind = PatternKind::kUrl;
  } else if ((cls & kByteEmailLocal) != 0 && *next_at < piece_end &&
             (end = MatchEmail(text, p)) != p) {
    // The local part holds no space, so its '@' lies in this piece.
    kind = PatternKind::kEmail;
  } else if ((cls & kBytePhoneStart) != 0 &&
             (end = MatchPhone(text, p)) != p) {
    kind = PatternKind::kPhone;
  } else {
    return p;
  }
  if (*count == out->size()) out->emplace_back();
  PatternMatch& m = (*out)[(*count)++];
  m.kind = kind;
  m.begin = p;
  m.end = end;
  m.text.assign(text.substr(p, end - p));
  return end;
}

}  // namespace

void ScanText(std::string_view text, std::vector<Token>* tokens,
              std::vector<PatternMatch>* patterns) {
  // Slots [0, count) of each output are live; the rest keep their string
  // capacity from earlier documents.
  size_t num_tokens = 0;
  size_t num_patterns = 0;
  // Patterns: no candidate before the last match's end, and an email
  // needs an '@' ahead.
  size_t resume = 0;
  size_t next_at =
      patterns != nullptr ? text.find('@') : std::string_view::npos;
  const char* s = text.data();
  const size_t n = text.size();
  size_t i = 0;
  while (true) {
    while (i < n && HasClass(s[i], kByteSpace)) ++i;
    if (i >= n) break;
    // One piece: the bytes up to the next space. `all` keeps the classes
    // every byte of it has.
    const size_t start = i;
    uint16_t all = ClassOf(s[i]);
    for (++i; i < n; ++i) {
      const uint16_t cls = ClassOf(s[i]);
      if ((cls & kByteSpace) != 0) break;
      all &= cls;
    }
    const size_t end = i;

    if (patterns != nullptr) {
      // Bytes that can begin a match here. An email's local part holds no
      // space, so it needs an '@' in this piece; `next_at` is never past
      // the first '@' at or after `start`.
      const uint16_t starts =
          kByteUrlStart | kBytePhoneStart |
          (next_at < end ? kByteEmailLocal : 0);
      // The piece start follows a space; inside the piece a candidate
      // follows a non-word byte, so an all-word piece has no other.
      if (start >= resume && HasClass(s[start], starts)) {
        resume = TryPattern(text, start, end, &next_at, patterns,
                            &num_patterns);
      }
      if ((all & kBytePatternWord) == 0) {
        for (size_t p = std::max(start + 1, resume); p < end; ++p) {
          if (p >= resume && !HasClass(s[p - 1], kBytePatternWord) &&
              HasClass(s[p], starts)) {
            resume = TryPattern(text, p, end, &next_at, patterns,
                                &num_patterns);
          }
        }
      }
    }

    size_t b = start;
    size_t e = end;
    while (b < e && HasClass(s[b], kBytePunct)) ++b;
    while (e > b && HasClass(s[e - 1], kBytePunct)) --e;
    if (b == e) continue;
    if (num_tokens == tokens->size()) tokens->emplace_back();
    Token& tok = (*tokens)[num_tokens++];
    const size_t len = e - b;
    tok.text.resize(len);
    char* out = tok.text.data();
    for (size_t k = 0; k < len; ++k) out[k] = AsciiToLower(s[b + k]);
    // Possessive normalization: "obama's" matches the entity "obama" (the
    // offsets keep the full surface).
    if (len > 2 && out[len - 2] == '\'' && out[len - 1] == 's') {
      tok.text.resize(len - 2);
    }
    tok.begin = b;
    tok.end = e;
  }
  tokens->resize(num_tokens);
  if (patterns != nullptr) patterns->resize(num_patterns);
}

void TokenizeInto(std::string_view text, std::vector<Token>* out) {
  ScanText(text, out, nullptr);
}

std::vector<Token> Tokenize(std::string_view text) {
  std::vector<Token> tokens;
  TokenizeInto(text, &tokens);
  return tokens;
}

std::vector<std::string> TokenizeToStrings(std::string_view text) {
  std::vector<std::string> out;
  for (auto& tok : Tokenize(text)) out.push_back(std::move(tok.text));
  return out;
}

std::string NormalizePhrase(std::string_view phrase) {
  std::vector<std::string> tokens = TokenizeToStrings(phrase);
  return JoinStrings(tokens, " ");
}

std::string StemPhrase(std::string_view phrase) {
  std::vector<std::string> tokens = TokenizeToStrings(phrase);
  for (std::string& t : tokens) t = PorterStem(t);
  return JoinStrings(tokens, " ");
}

}  // namespace ckr
