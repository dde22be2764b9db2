// The tokenizer's one scan (ScanText) against an in-test oracle: the two
// byte walks it replaced, a whitespace tokenizer and a pattern walk over
// <cctype> matchers, copied here as they were. Every token's hash must be
// HashToken of its text, and the scan runs over an exact-size heap copy
// of each input, so a read past the end fails under asan. Also pins the
// byte-class table against explicit ASCII ranges and the scan's handling
// of UTF-8.
#include <gtest/gtest.h>

#include <cctype>
#include <clocale>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "corpus/doc_generator.h"
#include "corpus/world.h"
#include "text/byte_class.h"
#include "text/pattern_detector.h"
#include "text/tokenizer.h"

namespace ckr {
namespace {

// ---------------------------------------------------------------------------
// Oracle: the two walks as they were before the one scan.

namespace oracle {

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }
bool IsPunct(char c) { return std::ispunct(static_cast<unsigned char>(c)); }
bool IsAlnum(char c) { return std::isalnum(static_cast<unsigned char>(c)); }
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

void TokenizeInto(std::string_view text, std::vector<Token>* out) {
  out->clear();
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    while (i < n && IsSpace(text[i])) ++i;
    if (i >= n) break;
    size_t start = i;
    while (i < n && !IsSpace(text[i])) ++i;
    size_t b = start;
    size_t e = i;
    while (b < e && IsPunct(text[b])) ++b;
    while (e > b && IsPunct(text[e - 1])) --e;
    if (b == e) continue;
    Token tok;
    tok.text.assign(text.substr(b, e - b));
    for (char& c : tok.text) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (tok.text.size() > 2 && tok.text.ends_with("'s")) {
      tok.text.resize(tok.text.size() - 2);
    }
    tok.hash = HashToken(tok.text);
    tok.begin = b;
    tok.end = e;
    out->push_back(std::move(tok));
  }
}

bool IsWordChar(char c) { return IsAlnum(c) || c == '_'; }

bool IsLocalPartChar(char c) {
  return IsAlnum(c) || c == '.' || c == '_' || c == '+' || c == '-';
}

bool IsDomainChar(char c) { return IsAlnum(c) || c == '-'; }

size_t MatchDomain(std::string_view text, size_t pos) {
  size_t i = pos;
  int labels = 0;
  while (i < text.size()) {
    size_t label_start = i;
    while (i < text.size() && IsDomainChar(text[i])) ++i;
    if (i == label_start) break;
    ++labels;
    if (i < text.size() && text[i] == '.') {
      if (i + 1 < text.size() && IsDomainChar(text[i + 1])) {
        ++i;
        continue;
      }
    }
    break;
  }
  if (labels < 2) return pos;
  size_t tld_start = i;
  while (tld_start > pos && text[tld_start - 1] != '.') --tld_start;
  if (i - tld_start < 2) return pos;
  for (size_t j = tld_start; j < i; ++j) {
    if (!std::isalpha(static_cast<unsigned char>(text[j]))) return pos;
  }
  return i;
}

size_t MatchEmail(std::string_view text, size_t pos) {
  size_t i = pos;
  while (i < text.size() && IsLocalPartChar(text[i])) ++i;
  if (i == pos || i >= text.size() || text[i] != '@') return pos;
  size_t domain_end = MatchDomain(text, i + 1);
  return domain_end == i + 1 ? pos : domain_end;
}

size_t MatchUrl(std::string_view text, size_t pos) {
  size_t i = pos;
  std::string_view rest = text.substr(pos);
  if (rest.starts_with("http://")) {
    i = pos + 7;
  } else if (rest.starts_with("https://")) {
    i = pos + 8;
  } else if (!rest.starts_with("www.")) {
    return pos;
  }
  size_t domain_end = MatchDomain(text, i);
  if (domain_end == i) return pos;
  i = domain_end;
  while (i < text.size() && !IsSpace(text[i]) && text[i] != '<' &&
         text[i] != '>' && text[i] != '"') {
    ++i;
  }
  while (i > domain_end && IsPunct(text[i - 1]) && text[i - 1] != '/') --i;
  return i;
}

size_t MatchPhone(std::string_view text, size_t pos) {
  size_t i = pos;
  int digits = 0;
  bool saw_separator = false;
  if (i < text.size() && text[i] == '+') ++i;
  if (i < text.size() && text[i] == '(') ++i;
  size_t start_digits = i;
  while (i < text.size()) {
    char c = text[i];
    if (IsDigit(c)) {
      ++digits;
      ++i;
    } else if ((c == '-' || c == '.' || c == ' ' || c == ')' || c == '(') &&
               digits > 0 && digits < 11) {
      size_t j = i + 1;
      if (c == ')' && j < text.size() && text[j] == ' ') ++j;
      if (j >= text.size() || !IsDigit(text[j])) break;
      saw_separator = true;
      i = j;
    } else {
      break;
    }
  }
  if (i == start_digits) return pos;
  if (!saw_separator) return pos;
  if (digits == 10 || digits == 11) return i;
  return pos;
}

void DetectPatternsInto(std::string_view text,
                        std::vector<PatternMatch>* out) {
  out->clear();
  size_t i = 0;
  const size_t n = text.size();
  size_t next_at = text.find('@');
  bool prev_word = false;
  while (i < n) {
    const char c = text[i];
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
    if ((c == 'h' || c == 'w') && (end = MatchUrl(text, i)) != i) {
      kind = PatternKind::kUrl;
    } else if (next_at != std::string_view::npos && IsLocalPartChar(c) &&
               (end = MatchEmail(text, i)) != i) {
      kind = PatternKind::kEmail;
    } else if ((c == '+' || c == '(' || IsDigit(c)) &&
               (end = MatchPhone(text, i)) != i) {
      kind = PatternKind::kPhone;
    } else {
      ++i;
      continue;
    }
    out->push_back({kind, i, end, std::string(text.substr(i, end - i))});
    i = end;
    prev_word = IsWordChar(text[end - 1]);
  }
}

}  // namespace oracle

// ---------------------------------------------------------------------------

bool SamePatterns(const std::vector<PatternMatch>& a,
                  const std::vector<PatternMatch>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].begin != b[i].begin ||
        a[i].end != b[i].end || a[i].text != b[i].text) {
      return false;
    }
  }
  return true;
}

std::string Describe(const std::vector<PatternMatch>& ms) {
  std::string out;
  for (const PatternMatch& m : ms) {
    out += "[" + std::to_string(static_cast<int>(m.kind)) + " " +
           std::to_string(m.begin) + "-" + std::to_string(m.end) + " '" +
           m.text + "'] ";
  }
  return out;
}

// Runs the scan with buffers reused across calls, as the runtime does,
// and compares it against the oracle on `text`. The scan reads an
// exact-size heap copy, so asan flags any read past the last byte.
// Counts matches seen.
class ScanChecker {
 public:
  void Check(const std::string& str, const std::string& label) {
    const std::unique_ptr<char[]> copy(new char[str.size()]);
    if (!str.empty()) std::memcpy(copy.get(), str.data(), str.size());
    const std::string_view text(copy.get(), str.size());
    ScanText(text, &tokens_, &patterns_);
    for (const Token& tok : tokens_) {
      ASSERT_EQ(tok.hash, HashToken(tok.text))
          << label << " token '" << tok.text << "'";
    }
    hashed_tokens_ += tokens_.size();
    oracle::TokenizeInto(text, &want_tokens_);
    oracle::DetectPatternsInto(text, &want_patterns_);
    ASSERT_EQ(tokens_, want_tokens_) << label << " text: " << text;
    ASSERT_TRUE(SamePatterns(patterns_, want_patterns_))
        << label << " text: " << text << "\n scan:   " << Describe(patterns_)
        << "\n oracle: " << Describe(want_patterns_);
    // Tokens only: the same tokens.
    TokenizeInto(text, &tokens_);
    ASSERT_EQ(tokens_, want_tokens_) << label << " text: " << text;
    for (const PatternMatch& m : want_patterns_) ++kinds_[static_cast<int>(m.kind)];
    ++texts_;
  }

  size_t Kind(PatternKind k) const { return kinds_[static_cast<int>(k)]; }
  size_t texts() const { return texts_; }
  size_t hashed_tokens() const { return hashed_tokens_; }

 private:
  std::vector<Token> tokens_;
  std::vector<PatternMatch> patterns_;
  std::vector<Token> want_tokens_;
  std::vector<PatternMatch> want_patterns_;
  size_t kinds_[3] = {0, 0, 0};
  size_t texts_ = 0;
  size_t hashed_tokens_ = 0;
};

TEST(ScanTextTest, MatchesOracleOnHandWrittenStrings) {
  ASSERT_STREQ(std::setlocale(LC_CTYPE, nullptr), "C");
  const std::vector<std::string> cases = {
      "",
      " ",
      "a",
      "call (555) 123-4567 today",                // Phone across a space.
      "(555) 123-4567",                           // ... at the text start.
      "x(555) 123-4567",                          // After a word byte: none.
      "+1-555-123-4567.",                         // Trailing punctuation.
      "555 123 4567abc then bob@mail.com",        // Ends mid-piece.
      "555.123.4567.bob@example.com",             // Mid-piece, then email.
      "555-123-4567-x@y.com",                     // Next candidate mid-piece.
      "(408) 555-1234) more",
      "President Bush'S speech, Obama's reply",   // Possessives, any case.
      "'s 's's s's ''s",                          // Degenerate possessives.
      "it's done@",                               // '@' after the last word.
      "mail @ me @",                              // Bare '@'.
      "see http://example.com/path?q=1. and www.test.org.)",
      "(https://a.b.co/x), \"http://a.io/\" <www.a.bc>",
      "http://a.bc/x)y).",                        // URL ends mid-piece.
      "www.x.y.zz/(a)!?",
      "wwww.a.com hhttp://a.com http://.com",
      ".bob@ex.com -a@b.cd +x@y.ef _q@r.st",      // Local-part punctuation.
      "a.b+tag_1@sub.domain.org, (jane@doe.io)",
      "foo@bar foo@bar.c foo@bar.c0m foo@bar..com",
      "x@y.com@z.org",
      "http://user@host.com/p email@www.site.org",
      "12-34 5551234567 555-1234 1-555-123-4567-8",
      "\t\n\v\f\r mixed\twhite\nspace\r\n",
      "a_b (c_d) _e_ __",
      "\x01\x02http://a.com\x7f\x7f" "555-123-4567",
      // Token lengths around the 8-byte words: 7, 8, 9, 15, 16, 17, each
      // also as the last bytes of the text and in upper case.
      "abcdefg abcdefgh abcdefghi abcdefghijklmno abcdefghijklmnop "
      "abcdefghijklmnopq",
      "ABCDEFG ABCDEFGH ABCDEFGHI ABCDEFGHIJKLMNO ABCDEFGHIJKLMNOP "
      "ABCDEFGHIJKLMNOPQ",
      "abcdefg", "abcdefgh", "abcdefghi", "ABCDEFGHIJKLMNO",
      "abcdefghijklmnop", "AbCdEfGhIjKlMnOpQ", "(Xabcdefgh)", "x ABCDEFGHI.",
      // Possessives whose "'s" straddles a word boundary: the token before
      // the trim is 8, 9, 10, 16 or 17 bytes, after it 6, 7, 8, 14, 15.
      "Abcdef's Abcdefg'S Abcdefgh's Abcdefghijklmn'S Abcdefghijklmno's",
      "abcdefgh's", "ABCDEFG'S", "abcdefghijklmno's", "x Abcdef'S",
      // Bytes >= 0x80 and controls inside 8-byte words, at the text's end.
      "\xC3\x89LYS\xC3\x89" "ES \xC1\xDA\xFFZ\x80" "A\x9B",
      std::string("ABC\0DEFGH\0", 11),
  };
  ScanChecker checker;
  for (size_t i = 0; i < cases.size(); ++i) {
    checker.Check(cases[i], "case " + std::to_string(i));
  }
  EXPECT_GT(checker.Kind(PatternKind::kUrl), 5u);
  EXPECT_GT(checker.Kind(PatternKind::kEmail), 5u);
  EXPECT_GT(checker.Kind(PatternKind::kPhone), 5u);
}

// A token that ends at the text's last byte, for every length up to 40 and
// every offset of its start, so the last word is read at each distance
// from the end of the (exact-size) buffer.
TEST(ScanTextTest, TokensEndingAtTheLastByte) {
  ScanChecker checker;
  const std::string word = "AbCdEfGhIjKlMnOpQrStUvWxYz0123456789'S";
  for (size_t len = 1; len <= word.size(); ++len) {
    for (size_t pad = 0; pad < 9; ++pad) {
      checker.Check(std::string(pad, ' ') + word.substr(0, len),
                    "len " + std::to_string(len) + " pad " +
                        std::to_string(pad));
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(checker.hashed_tokens(), word.size() * 9);
}

TEST(ScanTextTest, MatchesOracleOnRandomBytes) {
  ASSERT_STREQ(std::setlocale(LC_CTYPE, nullptr), "C");
  // Fragments that make patterns likely, mixed with single bytes drawn
  // from pattern-relevant classes and from all 256 values.
  const std::vector<std::string> fragments = {
      "http://", "https://", "www.", ".com", ".org", "@", "@a.bc", "(555) ",
      "123-", "4567", "+1-", "'s", "'S", " ", "  ", "\t", "\n", "a.b",
      "\xC3\xA9", "\xE6\x9D\xB1", "x_y", ")", "(", "\"", "<", ">", "/",
      "www.example.com", "http://a.bc/x", "555-123-4567", "(408) 555-1234",
      "bob@mail.com",
  };
  const std::string special =
      std::string("\t\n\v\f\r \x85\xA0\xFF\x80'sShw@._+-()<>\"/") +
      std::string(1, '\0') + "!:[`{~09AZaz";
  ScanChecker checker;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    for (int trial = 0; trial < 400; ++trial) {
      std::string text;
      const size_t parts = rng.NextBounded(60);
      for (size_t p = 0; p < parts; ++p) {
        switch (rng.NextBounded(4)) {
          case 0:
            text += fragments[rng.NextBounded(fragments.size())];
            break;
          case 1:
            text.push_back(special[rng.NextBounded(special.size())]);
            break;
          case 2:
            text.push_back(static_cast<char>(rng.NextBounded(256)));
            break;
          default:
            text.push_back(static_cast<char>('0' + rng.NextBounded(10)));
            break;
        }
      }
      checker.Check(text, "seed " + std::to_string(seed) + " trial " +
                              std::to_string(trial));
      if (HasFatalFailure()) return;
    }
  }
  // The sweep must reach every matcher, or it would not cover them.
  EXPECT_GT(checker.Kind(PatternKind::kUrl), 50u);
  EXPECT_GT(checker.Kind(PatternKind::kEmail), 50u);
  EXPECT_GT(checker.Kind(PatternKind::kPhone), 50u);
}

TEST(ScanTextTest, MatchesOracleOnGeneratedNews) {
  WorldConfig cfg;
  cfg.num_topics = 6;
  cfg.background_vocab = 600;
  cfg.words_per_topic = 40;
  cfg.num_named_entities = 150;
  cfg.num_concepts = 80;
  cfg.num_generic_concepts = 10;
  auto world_or = World::Create(cfg);
  ASSERT_TRUE(world_or.ok());
  DocGenerator gen(**world_or);
  ScanChecker checker;
  for (DocId id = 0; id < 200; ++id) {
    for (Document::Kind kind : {Document::Kind::kNews, Document::Kind::kWeb}) {
      checker.Check(gen.Generate(kind, id).text,
                    "doc " + std::to_string(id));
      if (HasFatalFailure()) return;
    }
  }
  // Generated documents plant no pattern entities: this leg pins the
  // tokens and that the candidate checks find nothing the oracle does not.
  EXPECT_EQ(checker.texts(), 400u);
}

// Generated news with emails, URLs and phones spliced in at word
// boundaries, so the lowering and hashing run next to pattern matches on
// realistic text. The patterns go into this test's inputs only.
TEST(ScanTextTest, MatchesOracleOnGeneratedNewsWithPatterns) {
  WorldConfig cfg;
  cfg.num_topics = 6;
  cfg.background_vocab = 600;
  cfg.words_per_topic = 40;
  cfg.num_named_entities = 150;
  cfg.num_concepts = 80;
  cfg.num_generic_concepts = 10;
  auto world_or = World::Create(cfg);
  ASSERT_TRUE(world_or.ok());
  DocGenerator gen(**world_or);
  const std::vector<std::string> planted = {
      "Press.Office@Example.COM",   "(408) 555-1234",
      "http://www.News-Site.org/Story?id=7.", "+1-555-123-4567",
      "WWW.Example.Com/Path",       "tips+Desk_2@mail.newsroom.co.uk,",
      "555.123.4567's",             "https://A.B.co/x)",
      "(Jane.Doe@Press.IO)",        "www.site.org's",
  };
  Rng rng(25);
  ScanChecker checker;
  for (DocId id = 0; id < 200; ++id) {
    std::string text = gen.Generate(Document::Kind::kNews, 900000 + id).text;
    for (int k = 0; k < 6; ++k) {
      const size_t at = text.find(' ', rng.NextBounded(text.size()));
      if (at == std::string::npos) continue;
      text.insert(at + 1,
                  planted[rng.NextBounded(planted.size())] + " ");
    }
    checker.Check(text, "doc " + std::to_string(id));
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(checker.Kind(PatternKind::kUrl), 100u);
  EXPECT_GT(checker.Kind(PatternKind::kEmail), 100u);
  EXPECT_GT(checker.Kind(PatternKind::kPhone), 100u);
}

// HashToken keeps distinct forms apart, the length included ("a" vs
// "a\0"), and spreads them over the memo's slot bits.
TEST(HashTokenTest, DistinctFormsSpreadOverTheLowBits) {
  EXPECT_NE(HashToken("a"), HashToken(std::string("a\0", 2)));
  EXPECT_NE(HashToken("abcdefgh"), HashToken(std::string("abcdefgh\0", 9)));
  std::unordered_set<uint64_t> hashes;
  std::unordered_set<uint64_t> slots;
  constexpr size_t kForms = 10000;
  for (size_t i = 0; i < kForms; ++i) {
    std::string form;
    for (size_t n = i + 1; n > 0; n /= 26) {
      form.push_back(static_cast<char>('a' + n % 26));
    }
    hashes.insert(HashToken(form));
    slots.insert(HashToken(form) & ((uint64_t{1} << 15) - 1));
  }
  EXPECT_EQ(hashes.size(), kForms);
  // Uniform hashing fills about 8,620 of 32,768 slots with 10,000 forms.
  EXPECT_GT(slots.size(), 8300u);
}

// Multi-byte UTF-8 is word bytes for tokens: it stays inside the token,
// is not lower-cased or stripped, and never splits one. For patterns it is
// a non-word byte that no matcher accepts, so no match begins on it.
TEST(ScanTextTest, Utf8StaysInsideTokensAndNeverStartsAPattern) {
  const std::string text =
      "Z\xC3\xBCrich's caf\xC3\xA9, \xC3\x89lys\xC3\xA9" "e "
      "\xE6\x9D\xB1\xE4\xBA\xAC (\xE2\x80\x9Cquoted\xE2\x80\x9D) "
      "jos\xC3\xA9@example.com \xC3\xB1www.site.org "
      "\xE2\x98\x8E" "555-123-4567";
  std::vector<Token> tokens;
  std::vector<PatternMatch> patterns;
  ScanText(text, &tokens, &patterns);
  std::vector<std::string> words;
  for (const Token& t : tokens) words.push_back(t.text);
  const std::vector<std::string> want = {
      "z\xC3\xBCrich",
      "caf\xC3\xA9",
      "\xC3\x89lys\xC3\xA9" "e",
      "\xE6\x9D\xB1\xE4\xBA\xAC",
      "\xE2\x80\x9Cquoted\xE2\x80\x9D",
      "jos\xC3\xA9@example.com",
      "\xC3\xB1www.site.org",
      "\xE2\x98\x8E" "555-123-4567",
  };
  EXPECT_EQ(words, want);
  for (const PatternMatch& m : patterns) {
    EXPECT_LT(static_cast<unsigned char>(text[m.begin]), 0x80u)
        << "pattern '" << m.text << "' starts on a non-ASCII byte";
  }
  // "jos\xC3\xA9@" has a non-ASCII byte before '@', so the email's local
  // part ends there and nothing matches; a pattern may begin right after a
  // multi-byte character.
  ASSERT_EQ(patterns.size(), 2u) << Describe(patterns);
  EXPECT_EQ(patterns[0].kind, PatternKind::kUrl);
  EXPECT_EQ(patterns[0].text, "www.site.org");
  EXPECT_EQ(patterns[1].kind, PatternKind::kPhone);
  EXPECT_EQ(patterns[1].text, "555-123-4567");
  for (unsigned b = 0x80; b <= 0xFF; ++b) {
    const std::string s(1, static_cast<char>(b));
    EXPECT_EQ(MatchEmail(s + "a@b.cd", 0), 0u) << "byte " << b;
    EXPECT_EQ(MatchUrl(s + "www.a.cd", 0), 0u) << "byte " << b;
    EXPECT_EQ(MatchPhone(s + "555-123-4567", 0), 0u) << "byte " << b;
  }
}

// Every byte's classes against explicit ASCII ranges, independent of any
// locale: bytes >= 0x80 have no class.
TEST(ByteClassTest, EveryByteMatchesExplicitAsciiRanges) {
  for (int b = 0; b < 256; ++b) {
    const bool space = b == ' ' || (b >= 0x09 && b <= 0x0D);
    const bool digit = b >= 0x30 && b <= 0x39;
    const bool upper = b >= 0x41 && b <= 0x5A;
    const bool alpha = upper || (b >= 0x61 && b <= 0x7A);
    const bool alnum = digit || alpha;
    const bool punct = (b >= 0x21 && b <= 0x2F) || (b >= 0x3A && b <= 0x40) ||
                       (b >= 0x5B && b <= 0x60) || (b >= 0x7B && b <= 0x7E);
    uint16_t want = 0;
    if (space) want |= kByteSpace;
    if (punct) want |= kBytePunct;
    if (digit) want |= kByteDigit;
    if (alpha) want |= kByteAlpha;
    if (alnum || b == '_') want |= kBytePatternWord;
    if (b == 'h' || b == 'w') want |= kByteUrlStart;
    if (digit || b == '+' || b == '(') want |= kBytePhoneStart;
    if (alnum || b == '.' || b == '_' || b == '+' || b == '-') {
      want |= kByteEmailLocal;
    }
    if (alnum || b == '-') want |= kByteDomain;
    EXPECT_EQ(kByteClassTable[b], want) << "byte " << b;
    EXPECT_EQ(static_cast<unsigned char>(AsciiToLower(static_cast<char>(b))),
              upper ? b + 32 : b)
        << "byte " << b;
  }
}

}  // namespace
}  // namespace ckr
