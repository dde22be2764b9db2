// Pattern-based entity detection (paper Section II-A, entity type 1):
// emails, URLs, and phone numbers via hand-rolled matchers. "Pattern based
// entities are not subject to any relevance calculations [and] are always
// annotated and shown to the user." The tokenizer's one scan over a
// document (ScanText, text/tokenizer.h) finds the candidate positions and
// calls the matchers below at each.
#ifndef CKR_TEXT_PATTERN_DETECTOR_H_
#define CKR_TEXT_PATTERN_DETECTOR_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace ckr {

/// Kinds of pattern entities.
enum class PatternKind { kEmail, kUrl, kPhone };

/// A pattern hit with its byte span.
struct PatternMatch {
  PatternKind kind;
  size_t begin = 0;
  size_t end = 0;
  std::string text;  ///< The matched surface.
};

/// All pattern entities of `text`, left to right, non-overlapping: what
/// ScanText emits. A convenience for callers that need no tokens.
std::vector<PatternMatch> DetectPatterns(std::string_view text);

/// Individual matchers, driven by the byte-class table (text/byte_class.h)
/// and so independent of the locale. Each tries to match at `pos` and
/// returns the end offset, or `pos` if no match.
size_t MatchEmail(std::string_view text, size_t pos);
size_t MatchUrl(std::string_view text, size_t pos);
size_t MatchPhone(std::string_view text, size_t pos);

}  // namespace ckr

#endif  // CKR_TEXT_PATTERN_DETECTOR_H_
