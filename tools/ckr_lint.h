// ckr_lint: in-repo static analyzer enforcing the contracts the
// reproduction's bit-for-bit determinism rests on. The compiler enforces
// what it can see ([[nodiscard]] Status, -Werror); this tool enforces the
// token-level conventions it cannot:
//
//   R1  no nondeterminism sources: rand()/srand(), std::random_device,
//       and <chrono> clock ::now() calls (wall-clock reads are allowed in
//       bench/ where they measure, not compute).
//   R2  no throw/try/catch in src/ — Status/StatusOr is the only error
//       channel across library boundaries.
//   R3  every Status/StatusOr-returning function declared in a src/
//       header carries [[nodiscard]].
//   R4  no range-for over an unordered_{map,set} in any file that
//       includes serialization machinery (a binary_io.h, or the
//       block-index headers block_postings.h / block_max_index.h) —
//       hash-order iteration feeding a serializer silently breaks
//       reproducibility. A .cc file's own header (foo.h beside foo.cc)
//       counts as part of it, for both the include and the container
//       declarations.
//   R5  banned C functions: strcpy, sprintf, atoi, gets.
//   R6  every std::mutex / std::atomic (and friends: shared_mutex,
//       condition_variable, atomic_flag, ...) data member in src/ must
//       declare its discipline: a thread-safety annotation
//       (CKR_GUARDED_BY / CKR_PT_GUARDED_BY / CKR_ACQUIRED_*) or an
//       explicit waiver with a reason. Raw std::mutex members also trade
//       up to the annotated ckr::Mutex so Clang -Wthread-safety and R8
//       can see them.
//   R7  every atomic load/store/RMW in src/ must name an explicit
//       std::memory_order — a bare call silently defaults to seq_cst,
//       which is either an unstated cost or an unstated correctness
//       assumption; sequentially-consistent call sites say so.
//   R8  the declared lock hierarchy. Lock-order declarations (see the
//       marker syntax at the bottom of this comment) are gathered
//       across all scanned files into one partial order (transitively
//       closed); a scope that acquires a declared lock while holding a
//       declared lock ranked after it is an inversion. Scoped lock sites
//       (MutexLock / lock_guard / unique_lock / scoped_lock) are what the
//       check reads.
//
// Suppressions (always scoped and greppable):
//   // ckr-lint: allow(R1[,R5...])   this line, or the next line when the
//                                    comment stands alone
//   // ckr-lint: ordered             alias for allow(R4)
//   // ckr-lint: unguarded(reason)   alias for allow(R6); the reason is
//                                    mandatory — an empty one is ignored
//   // ckr-lint: seqcst              alias for allow(R7)
//   // ckr-lint: allow-file(R2,...)  whole file
//
// Lock-order declarations use their own comment marker (one chain per
// line comment, identifiers separated by '<', no trailing text):
//   // ckr-lock-order: lifecycle_mu_ < queue_mu_ < registry_mu_
#ifndef CKR_TOOLS_CKR_LINT_H_
#define CKR_TOOLS_CKR_LINT_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace ckr {
namespace lint {

/// One rule violation at a source location.
struct Violation {
  std::string file;
  int line = 0;
  std::string rule;     ///< "R1".."R8".
  std::string message;  ///< Human-readable description.
};

/// "file:line: [RN] message" — the format editors and CI understand.
std::string FormatViolation(const Violation& v);

/// Which contract set applies, derived from the path ("src/", "bench/",
/// "tests/"). Files outside those trees get the src rules minus
/// R2/R3/R6/R7.
enum class FileKind { kSrc, kBench, kTests, kOther };

FileKind ClassifyPath(std::string_view path);

/// The declared lock hierarchy R8 checks against: a partial order over
/// mutex member names, built from "ckr-lock-order:" comments. AddEdge as
/// declarations are found, then Finalize() once to take the transitive
/// closure; Before() answers ordering queries afterwards.
class LockOrderSpec {
 public:
  /// Declares that `first` is acquired before `second`.
  void AddEdge(const std::string& first, const std::string& second);

  /// Transitive closure over all added edges. Call once, after the last
  /// AddEdge; Before() is only meaningful afterwards.
  void Finalize();

  /// True when `name` participates in any declaration. Undeclared locks
  /// are outside the hierarchy and never checked.
  bool Declared(const std::string& name) const;

  /// True when the (finalized) order declares `a` acquired before `b`.
  bool Before(const std::string& a, const std::string& b) const;

  bool empty() const { return later_.empty(); }

 private:
  /// name -> every name declared (transitively) after it.
  std::map<std::string, std::set<std::string>> later_;
};

/// Scans `content` for "ckr-lock-order:" declarations (comments only —
/// string literals are ignored) and adds their edges to `spec`. Cheap on
/// files without the marker.
void CollectLockOrder(std::string_view content, LockOrderSpec* spec);

/// Lints one file's content. `path` decides the applicable rules (see
/// ClassifyPath) and is echoed into the violations; no I/O happens here.
/// `lock_order` is the finalized cross-file hierarchy for R8; pass null
/// to build it from this file's own declarations (single-file mode).
/// `own_header` is the content of the TU's own header (foo.h beside
/// foo.cc), empty if none: R4 reads its includes and its container
/// declarations as the TU's own.
std::vector<Violation> LintContent(std::string_view path,
                                   std::string_view content,
                                   const LockOrderSpec* lock_order,
                                   std::string_view own_header = {});
std::vector<Violation> LintContent(std::string_view path,
                                   std::string_view content);

/// Reads and lints a file on disk, with its own header (single-file
/// lock-order mode).
[[nodiscard]] StatusOr<std::vector<Violation>> LintPath(
    const std::string& path);

/// Outcome of linting a file set: violations in input-path order (then
/// by line), read failures in input-path order. Deterministic for a
/// given input order regardless of `jobs`.
struct LintRunResult {
  size_t files = 0;  ///< Paths scanned (including ones that failed).
  std::vector<Violation> violations;
  std::vector<std::string> errors;  ///< "path: reason" read failures.

  bool clean() const { return violations.empty() && errors.empty(); }
};

/// Two-pass run over `paths`: pass one reads every file and gathers the
/// global lock-order registry; pass two lints the files in parallel on
/// up to `jobs` workers (0 = one per hardware thread) with per-slot
/// output buffers, so the merged result is byte-identical to jobs=1.
LintRunResult LintFiles(const std::vector<std::string>& paths,
                        unsigned jobs);

/// Deterministic machine-readable report: one JSON object with bytewise
/// -sorted keys, no whitespace, trailing newline. Same bytes for the
/// same result on every run/platform — CI archives it as an artifact
/// and diffs are meaningful.
std::string LintReportJson(const LintRunResult& result);

}  // namespace lint
}  // namespace ckr

#endif  // CKR_TOOLS_CKR_LINT_H_
