#include "text/tokenizer.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "common/string_util.h"
#include "text/byte_class.h"
#include "text/porter_stemmer.h"

namespace ckr {
namespace {

// Tokens are lowered and hashed eight bytes at a time: a word is the next
// eight bytes of a token in memory order, the last one zero-padded, and
// its first byte is the word's low byte.
static_assert(std::endian::native == std::endian::little);
constexpr uint64_t kEveryByte = 0x0101010101010101ULL;
constexpr uint64_t kHighBits = 0x8080808080808080ULL;
constexpr uint64_t kFoldMul = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kFinishMul = 0xff51afd7ed558ccdULL;

uint64_t LoadWord(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

// AsciiToLower on each byte of `w`: 'A'..'Z' gain 0x20, every other byte,
// >= 0x80 included, is unchanged. Per byte, on its low seven bits, adding
// 0x80 - 'A' sets the high bit iff the byte is >= 'A', and adding
// 0x80 - 'Z' - 1 iff it is > 'Z'; neither sum carries into the next byte.
uint64_t LowerWord(uint64_t w) {
  const uint64_t low7 = w & ~kHighBits;
  const uint64_t at_least_a = low7 + kEveryByte * (0x80 - 'A');
  const uint64_t above_z = low7 + kEveryByte * (0x80 - 'Z' - 1);
  const uint64_t upper = at_least_a & ~above_z & ~w & kHighBits;
  return w | (upper >> 2);  // 0x80 >> 2 == 'a' - 'A'.
}

// The first `n` (1..7) bytes of `w`, the rest zeroed.
uint64_t KeepBytes(uint64_t w, size_t n) {
  const unsigned drop = static_cast<unsigned>(8 * (8 - n));
  return (w << drop) >> drop;
}

// The hash's three steps: a start that folds in the length (a zero-padded
// last word alone cannot tell "a" from "a\0"), one multiply per word, and
// a finish that mixes the high bits into the low ones the memo's slot
// index reads.
uint64_t HashStart(size_t len) { return len * kFoldMul; }
uint64_t HashFold(uint64_t h, uint64_t w) { return (h ^ w) * kFoldMul; }
uint64_t HashFinish(uint64_t h) {
  h ^= h >> 32;
  h *= kFinishMul;
  return h ^ (h >> 29);
}

// Stores the first `n` (1..7) bytes of `w` at `out`:
// two overlapping 4-byte stores, or three single bytes for n < 4, which
// is cheaper than a variable-length memcpy call.
void StoreBytes(uint64_t w, size_t n, char* out) {
  char b[8];
  std::memcpy(b, &w, sizeof(b));
  if (n >= 4) {
    std::memcpy(out, b, 4);
    std::memcpy(out + n - 4, b + n - 4, 4);
  } else {
    out[0] = b[0];
    out[n / 2] = b[n / 2];
    out[n - 1] = b[n - 1];
  }
}

// Writes the `len` bytes at `src` lower-cased to `out` and returns their
// HashToken. `avail` >= `len` bytes are readable at `src`: when a full
// word fits, the last word is read whole and masked, else byte-exact.
uint64_t LowerAndHash(const char* src, size_t len, size_t avail, char* out) {
  uint64_t h = HashStart(len);
  size_t k = 0;
  for (; k + 8 <= len; k += 8) {
    const uint64_t w = LowerWord(LoadWord(src + k));
    std::memcpy(out + k, &w, 8);
    h = HashFold(h, w);
  }
  const size_t rest = len - k;
  if (rest == 0) return HashFinish(h);
  uint64_t w = 0;
  if (k + 8 <= avail) {
    w = LoadWord(src + k);
  } else {
    std::memcpy(&w, src + k, rest);
  }
  w = KeepBytes(LowerWord(w), rest);
  StoreBytes(w, rest, out + k);
  return HashFinish(HashFold(h, w));
}

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
    // Possessive normalization: "obama's" matches the entity "obama" (the
    // offsets keep the full surface).
    size_t len = e - b;
    if (len > 2 && s[e - 2] == '\'' && AsciiToLower(s[e - 1]) == 's') {
      len -= 2;
    }
    if (num_tokens == tokens->size()) tokens->emplace_back();
    Token& tok = (*tokens)[num_tokens++];
    tok.text.resize(len);
    tok.hash = LowerAndHash(s + b, len, n - b, tok.text.data());
    tok.begin = b;
    tok.end = e;
  }
  tokens->resize(num_tokens);
  if (patterns != nullptr) patterns->resize(num_patterns);
}

uint64_t HashToken(std::string_view text) {
  const size_t len = text.size();
  uint64_t h = HashStart(len);
  size_t k = 0;
  for (; k + 8 <= len; k += 8) h = HashFold(h, LoadWord(text.data() + k));
  if (k == len) return HashFinish(h);
  uint64_t w = 0;
  std::memcpy(&w, text.data() + k, len - k);
  return HashFinish(HashFold(h, w));
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
