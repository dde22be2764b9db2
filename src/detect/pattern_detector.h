// Pattern-based entity detection (paper Section II-A, entity type 1):
// emails, URLs, and phone numbers via hand-rolled scanners. "Pattern based
// entities are not subject to any relevance calculations [and] are always
// annotated and shown to the user."
#ifndef CKR_DETECT_PATTERN_DETECTOR_H_
#define CKR_DETECT_PATTERN_DETECTOR_H_

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

/// Scans text for all pattern entities, left to right, non-overlapping.
std::vector<PatternMatch> DetectPatterns(std::string_view text);

/// Buffer-reuse variant for hot paths: overwrites `*out` in place, reusing
/// vector capacity and slot string buffers.
void DetectPatternsInto(std::string_view text, std::vector<PatternMatch>* out);

/// Individual scanners (exposed for focused testing). Each tries to match
/// at `pos` and returns the end offset, or `pos` if no match.
size_t MatchEmail(std::string_view text, size_t pos);
size_t MatchUrl(std::string_view text, size_t pos);
size_t MatchPhone(std::string_view text, size_t pos);

}  // namespace ckr

#endif  // CKR_DETECT_PATTERN_DETECTOR_H_
