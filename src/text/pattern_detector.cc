#include "text/pattern_detector.h"

#include "common/string_util.h"
#include "text/byte_class.h"
#include "text/tokenizer.h"

namespace ckr {
namespace {

// Matches a dotted domain with at least one dot and a 2+ letter TLD,
// starting at `pos`. Returns end offset or `pos` on failure.
size_t MatchDomain(std::string_view text, size_t pos) {
  size_t i = pos;
  int labels = 0;
  while (i < text.size()) {
    size_t label_start = i;
    while (i < text.size() && HasClass(text[i], kByteDomain)) ++i;
    if (i == label_start) break;
    ++labels;
    if (i < text.size() && text[i] == '.') {
      // Only consume the dot if another label follows.
      if (i + 1 < text.size() && HasClass(text[i + 1], kByteDomain)) {
        ++i;
        continue;
      }
    }
    break;
  }
  if (labels < 2) return pos;
  // Last label must be alphabetic, length >= 2 (a TLD).
  size_t tld_start = i;
  while (tld_start > pos && text[tld_start - 1] != '.') --tld_start;
  if (i - tld_start < 2) return pos;
  for (size_t j = tld_start; j < i; ++j) {
    if (!HasClass(text[j], kByteAlpha)) return pos;
  }
  return i;
}

}  // namespace

size_t MatchEmail(std::string_view text, size_t pos) {
  // local-part@domain.tld — the scan starts at the local part.
  size_t i = pos;
  while (i < text.size() && HasClass(text[i], kByteEmailLocal)) ++i;
  if (i == pos || i >= text.size() || text[i] != '@') return pos;
  size_t domain_end = MatchDomain(text, i + 1);
  return domain_end == i + 1 ? pos : domain_end;
}

size_t MatchUrl(std::string_view text, size_t pos) {
  size_t i = pos;
  std::string_view rest = text.substr(pos);
  if (StartsWith(rest, "http://")) {
    i = pos + 7;
  } else if (StartsWith(rest, "https://")) {
    i = pos + 8;
  } else if (StartsWith(rest, "www.")) {
    i = pos;  // Domain match consumes the www label too.
  } else {
    return pos;
  }
  size_t domain_end = MatchDomain(text, i);
  if (domain_end == i) return pos;
  i = domain_end;
  // Optional path/query up to whitespace; strip trailing punctuation.
  while (i < text.size() && !HasClass(text[i], kByteSpace) &&
         text[i] != '<' && text[i] != '>' && text[i] != '"') {
    ++i;
  }
  while (i > domain_end && HasClass(text[i - 1], kBytePunct) &&
         text[i - 1] != '/') {
    --i;
  }
  return i;
}

size_t MatchPhone(std::string_view text, size_t pos) {
  // North-American shapes: 555-123-4567, (555) 123-4567, 555.123.4567,
  // +1-555-123-4567. Require exactly 10 digits (11 with leading 1).
  size_t i = pos;
  int digits = 0;
  bool saw_separator = false;
  if (i < text.size() && text[i] == '+') ++i;
  if (i < text.size() && text[i] == '(') ++i;
  size_t start_digits = i;
  while (i < text.size()) {
    char c = text[i];
    if (HasClass(c, kByteDigit)) {
      ++digits;
      ++i;
    } else if ((c == '-' || c == '.' || c == ' ' || c == ')' || c == '(') &&
               digits > 0 && digits < 11) {
      // Separators must be followed by a digit (possibly after one space).
      size_t j = i + 1;
      if (c == ')' && j < text.size() && text[j] == ' ') ++j;
      if (j >= text.size() || !HasClass(text[j], kByteDigit)) {
        break;
      }
      saw_separator = true;
      i = j;
    } else {
      break;
    }
  }
  if (i == start_digits) return pos;
  if (!saw_separator) return pos;  // Bare digit runs are not phones.
  if (digits == 10 || digits == 11) return i;
  return pos;
}

std::vector<PatternMatch> DetectPatterns(std::string_view text) {
  std::vector<Token> tokens;
  std::vector<PatternMatch> out;
  ScanText(text, &tokens, &out);
  return out;
}

}  // namespace ckr
