#include "detect/pattern_detector.h"

#include <array>
#include <cctype>

#include "common/string_util.h"

namespace ckr {
namespace {

// Table-driven IsWordChar: the detector scans every byte of every
// document, so avoid the libc isalnum call in the hot loop.
constexpr std::array<bool, 256> MakeWordCharTable() {
  std::array<bool, 256> t{};
  for (int c = '0'; c <= '9'; ++c) t[c] = true;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = true;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = true;
  t['_'] = true;
  return t;
}
constexpr std::array<bool, 256> kWordChar = MakeWordCharTable();

bool IsWordChar(char c) { return kWordChar[static_cast<unsigned char>(c)]; }

bool IsLocalPartChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
         c == '_' || c == '+' || c == '-';
}

bool IsDomainChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '-';
}

// Matches a dotted domain with at least one dot and a 2+ letter TLD,
// starting at `pos`. Returns end offset or `pos` on failure.
size_t MatchDomain(std::string_view text, size_t pos) {
  size_t i = pos;
  int labels = 0;
  while (i < text.size()) {
    size_t label_start = i;
    while (i < text.size() && IsDomainChar(text[i])) ++i;
    if (i == label_start) break;
    ++labels;
    if (i < text.size() && text[i] == '.') {
      // Only consume the dot if another label follows.
      if (i + 1 < text.size() && IsDomainChar(text[i + 1])) {
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
    if (!std::isalpha(static_cast<unsigned char>(text[j]))) return pos;
  }
  return i;
}

}  // namespace

size_t MatchEmail(std::string_view text, size_t pos) {
  // local-part@domain.tld — the scan starts at the local part.
  size_t i = pos;
  while (i < text.size() && IsLocalPartChar(text[i])) ++i;
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
  while (i < text.size() &&
         !std::isspace(static_cast<unsigned char>(text[i])) &&
         text[i] != '<' && text[i] != '>' && text[i] != '"') {
    ++i;
  }
  while (i > domain_end &&
         std::ispunct(static_cast<unsigned char>(text[i - 1])) &&
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
    if (std::isdigit(static_cast<unsigned char>(c))) {
      ++digits;
      ++i;
    } else if ((c == '-' || c == '.' || c == ' ' || c == ')' || c == '(') &&
               digits > 0 && digits < 11) {
      // Separators must be followed by a digit (possibly after one space).
      size_t j = i + 1;
      if (c == ')' && j < text.size() && text[j] == ' ') ++j;
      if (j >= text.size() ||
          !std::isdigit(static_cast<unsigned char>(text[j]))) {
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

void DetectPatternsInto(std::string_view text, std::vector<PatternMatch>* out) {
  size_t count = 0;  // Slots [0, count) are live; later slots keep their
                     // string capacity for reuse across documents.
  size_t i = 0;
  const size_t n = text.size();
  // Position of the next '@' at or after the cursor; an email can only
  // match when one exists ahead, which skips the local-part scan entirely
  // on '@'-free documents (the common case).
  size_t next_at = text.find('@');
  bool prev_word = false;
  while (i < n) {
    const char c = text[i];
    // Only try at token starts: beginning of text or after a non-word char.
    if (prev_word) {
      prev_word = IsWordChar(c);
      ++i;
      continue;
    }
    prev_word = IsWordChar(c);
    size_t end = 0;
    PatternKind kind = PatternKind::kEmail;
    if (next_at != std::string_view::npos && next_at < i) {
      next_at = text.find('@', i);
    }
    // URL before email (URLs can contain '@' in userinfo); email before
    // phone (emails can start with digits). Each matcher is gated on the
    // characters it requires, so a plain word costs zero matcher calls.
    if ((c == 'h' || c == 'w') && (end = MatchUrl(text, i)) != i) {
      kind = PatternKind::kUrl;
    } else if (next_at != std::string_view::npos && IsLocalPartChar(c) &&
               (end = MatchEmail(text, i)) != i) {
      kind = PatternKind::kEmail;
    } else if ((c == '+' || c == '(' ||
                std::isdigit(static_cast<unsigned char>(c))) &&
               (end = MatchPhone(text, i)) != i) {
      kind = PatternKind::kPhone;
    } else {
      ++i;
      continue;
    }
    if (count == out->size()) out->emplace_back();
    PatternMatch& m = (*out)[count++];
    m.kind = kind;
    m.begin = i;
    m.end = end;
    m.text.assign(text.substr(i, end - i));
    i = end;
    prev_word = end > 0 && IsWordChar(text[end - 1]);
  }
  out->resize(count);
}

std::vector<PatternMatch> DetectPatterns(std::string_view text) {
  std::vector<PatternMatch> out;
  DetectPatternsInto(text, &out);
  return out;
}

}  // namespace ckr
