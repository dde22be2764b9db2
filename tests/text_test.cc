// Unit tests for ckr_text: tokenizer, Porter stemmer, stop words, HTML,
// sentence/paragraph/window detection.
#include <gtest/gtest.h>

#include <cctype>
#include <clocale>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "text/byte_class.h"
#include "text/html.h"
#include "text/porter_stemmer.h"
#include "text/sentence.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace ckr {
namespace {

TEST(PorterTest, ClassicExamples) {
  // Reference pairs from Porter's paper and the canonical test vocabulary.
  EXPECT_EQ(PorterStem("caresses"), "caress");
  EXPECT_EQ(PorterStem("ponies"), "poni");
  EXPECT_EQ(PorterStem("ties"), "ti");
  EXPECT_EQ(PorterStem("caress"), "caress");
  EXPECT_EQ(PorterStem("cats"), "cat");
  EXPECT_EQ(PorterStem("feed"), "feed");
  EXPECT_EQ(PorterStem("agreed"), "agre");
  EXPECT_EQ(PorterStem("plastered"), "plaster");
  EXPECT_EQ(PorterStem("bled"), "bled");
  EXPECT_EQ(PorterStem("motoring"), "motor");
  EXPECT_EQ(PorterStem("sing"), "sing");
  EXPECT_EQ(PorterStem("conflated"), "conflat");
  EXPECT_EQ(PorterStem("troubled"), "troubl");
  EXPECT_EQ(PorterStem("sized"), "size");
  EXPECT_EQ(PorterStem("hopping"), "hop");
  EXPECT_EQ(PorterStem("tanned"), "tan");
  EXPECT_EQ(PorterStem("falling"), "fall");
  EXPECT_EQ(PorterStem("hissing"), "hiss");
  EXPECT_EQ(PorterStem("fizzed"), "fizz");
  EXPECT_EQ(PorterStem("failing"), "fail");
  EXPECT_EQ(PorterStem("filing"), "file");
  EXPECT_EQ(PorterStem("happy"), "happi");
  EXPECT_EQ(PorterStem("sky"), "sky");
  EXPECT_EQ(PorterStem("relational"), "relat");
  EXPECT_EQ(PorterStem("conditional"), "condit");
  EXPECT_EQ(PorterStem("rational"), "ration");
  EXPECT_EQ(PorterStem("valenci"), "valenc");
  EXPECT_EQ(PorterStem("hesitanci"), "hesit");
  EXPECT_EQ(PorterStem("digitizer"), "digit");
  EXPECT_EQ(PorterStem("conformabli"), "conform");
  EXPECT_EQ(PorterStem("radicalli"), "radic");
  EXPECT_EQ(PorterStem("differentli"), "differ");
  EXPECT_EQ(PorterStem("vileli"), "vile");
  EXPECT_EQ(PorterStem("analogousli"), "analog");
  EXPECT_EQ(PorterStem("vietnamization"), "vietnam");
  EXPECT_EQ(PorterStem("predication"), "predic");
  EXPECT_EQ(PorterStem("operator"), "oper");
  EXPECT_EQ(PorterStem("feudalism"), "feudal");
  EXPECT_EQ(PorterStem("decisiveness"), "decis");
  EXPECT_EQ(PorterStem("hopefulness"), "hope");
  EXPECT_EQ(PorterStem("callousness"), "callous");
  EXPECT_EQ(PorterStem("formaliti"), "formal");
  EXPECT_EQ(PorterStem("sensitiviti"), "sensit");
  EXPECT_EQ(PorterStem("sensibiliti"), "sensibl");
  EXPECT_EQ(PorterStem("triplicate"), "triplic");
  EXPECT_EQ(PorterStem("formative"), "form");
  EXPECT_EQ(PorterStem("formalize"), "formal");
  EXPECT_EQ(PorterStem("electriciti"), "electr");
  EXPECT_EQ(PorterStem("electrical"), "electr");
  EXPECT_EQ(PorterStem("hopeful"), "hope");
  EXPECT_EQ(PorterStem("goodness"), "good");
  EXPECT_EQ(PorterStem("revival"), "reviv");
  EXPECT_EQ(PorterStem("allowance"), "allow");
  EXPECT_EQ(PorterStem("inference"), "infer");
  EXPECT_EQ(PorterStem("airliner"), "airlin");
  EXPECT_EQ(PorterStem("gyroscopic"), "gyroscop");
  EXPECT_EQ(PorterStem("adjustable"), "adjust");
  EXPECT_EQ(PorterStem("defensible"), "defens");
  EXPECT_EQ(PorterStem("irritant"), "irrit");
  EXPECT_EQ(PorterStem("replacement"), "replac");
  EXPECT_EQ(PorterStem("adjustment"), "adjust");
  EXPECT_EQ(PorterStem("dependent"), "depend");
  EXPECT_EQ(PorterStem("adoption"), "adopt");
  EXPECT_EQ(PorterStem("homologou"), "homolog");
  EXPECT_EQ(PorterStem("communism"), "commun");
  EXPECT_EQ(PorterStem("activate"), "activ");
  EXPECT_EQ(PorterStem("angulariti"), "angular");
  EXPECT_EQ(PorterStem("homologous"), "homolog");
  EXPECT_EQ(PorterStem("effective"), "effect");
  EXPECT_EQ(PorterStem("bowdlerize"), "bowdler");
  EXPECT_EQ(PorterStem("probate"), "probat");
  EXPECT_EQ(PorterStem("rate"), "rate");
  EXPECT_EQ(PorterStem("cease"), "ceas");
  EXPECT_EQ(PorterStem("controll"), "control");
  EXPECT_EQ(PorterStem("roll"), "roll");
}

TEST(PorterTest, ShortWordsUnchanged) {
  EXPECT_EQ(PorterStem("at"), "at");
  EXPECT_EQ(PorterStem("by"), "by");
  EXPECT_EQ(PorterStem(""), "");
  EXPECT_EQ(PorterStem("a"), "a");
}

TEST(PorterTest, NonAlphaUnchanged) {
  EXPECT_EQ(PorterStem("123"), "123");
  EXPECT_EQ(PorterStem("usa2008"), "usa2008");
  EXPECT_EQ(PorterStem("Caps"), "Caps");
}

TEST(PorterTest, IdempotentOnCommonWords) {
  // Property: stemming a stem should not change it for a broad sample.
  const char* words[] = {"running",  "jumped",   "happily", "nationalism",
                         "generalization", "hopefulness", "relational",
                         "political", "arguments", "insurance"};
  for (const char* w : words) {
    std::string once = PorterStem(w);
    EXPECT_EQ(PorterStem(once), once) << "word: " << w;
  }
}

TEST(StopwordsTest, CommonWordsAreStopWords) {
  EXPECT_TRUE(IsStopWord("the"));
  EXPECT_TRUE(IsStopWord("and"));
  EXPECT_TRUE(IsStopWord("of"));
  EXPECT_FALSE(IsStopWord("president"));
  EXPECT_FALSE(IsStopWord(""));
  EXPECT_GT(StopWordSet().size(), 100u);
}

TEST(TokenizerTest, BasicSplitAndNormalize) {
  auto toks = TokenizeToStrings("President Bush's position, was (similar).");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[0], "president");
  EXPECT_EQ(toks[1], "bush");
  EXPECT_EQ(toks[2], "position");
  EXPECT_EQ(toks[4], "similar");
}

TEST(TokenizerTest, OffsetsPointIntoSource) {
  std::string text = "  Hello,  world! ";
  auto toks = Tokenize(text);
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(text.substr(toks[0].begin, toks[0].end - toks[0].begin), "Hello");
  EXPECT_EQ(text.substr(toks[1].begin, toks[1].end - toks[1].begin), "world");
  EXPECT_EQ(toks[0].text, "hello");
  EXPECT_EQ(toks[1].text, "world");
}

TEST(TokenizerTest, StripsSurroundingPunct) {
  // Surrounding punctuation goes ("surrounding punctuation characters are
  // removed"); internal punctuation stays.
  EXPECT_EQ(TokenizeToStrings("(obama,"), std::vector<std::string>{"obama"});
  EXPECT_EQ(TokenizeToStrings("u.s."), std::vector<std::string>{"u.s"});
  EXPECT_TRUE(TokenizeToStrings("...").empty());
  EXPECT_EQ(TokenizeToStrings("plain"), std::vector<std::string>{"plain"});
}

TEST(TokenizerTest, EmptyAndWhitespaceOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("   \n\t ").empty());
  EXPECT_TRUE(Tokenize("... !!! ,,,").empty());
}

TEST(TokenizerTest, NumberFiltering) {
  // Purely numeric tokens are kept.
  EXPECT_EQ(TokenizeToStrings("room 42 ready"),
            (std::vector<std::string>{"room", "42", "ready"}));
}

TEST(TokenizerTest, NormalizePhrase) {
  EXPECT_EQ(NormalizePhrase("  New   York,  Sen. Clinton "),
            "new york sen clinton");
  EXPECT_EQ(NormalizePhrase(""), "");
}

TEST(TokenizerTest, StemPhrase) {
  EXPECT_EQ(StemPhrase("running dogs"), "run dog");
}

TEST(HtmlTest, StripsTagsAndComments) {
  EXPECT_EQ(StripHtml("<b>bold</b> text"), "bold text");
  EXPECT_EQ(StripHtml("a<!-- hidden -->b"), "ab");
}

TEST(HtmlTest, BlockTagsBecomeNewlines) {
  std::string out = StripHtml("<p>one</p><p>two</p>");
  EXPECT_NE(out.find('\n'), std::string::npos);
  EXPECT_NE(out.find("one"), std::string::npos);
  EXPECT_NE(out.find("two"), std::string::npos);
}

TEST(HtmlTest, ScriptAndStyleBodiesDropped) {
  std::string out =
      StripHtml("before<script>var x = '<nasty>';</script>after"
                "<style>.a{color:red}</style>end");
  EXPECT_EQ(out, "beforeafterend");
}

TEST(HtmlTest, EntityDecoding) {
  EXPECT_EQ(StripHtml("a &amp; b &lt;c&gt; &quot;d&quot; &#65;"),
            "a & b <c> \"d\" A");
  EXPECT_EQ(StripHtml("AT&T"), "AT&T");  // Bare ampersand survives.
}

TEST(HtmlTest, EscapeRoundTrip) {
  std::string raw = "a & b < c > \"d\"";
  EXPECT_EQ(StripHtml(EscapeHtml(raw)), raw);
}

TEST(SentenceTest, SplitsOnTerminators) {
  auto spans = DetectSentences("First one. Second one! Third?");
  ASSERT_EQ(spans.size(), 3u);
}

TEST(SentenceTest, AbbreviationsDoNotSplit) {
  std::string text = "Sen. Clinton met Mr. Obama in Texas. They talked.";
  auto spans = DetectSentences(text);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(text.substr(spans[0].begin, spans[0].size()),
            "Sen. Clinton met Mr. Obama in Texas.");
}

TEST(SentenceTest, DecimalsDoNotSplit) {
  auto spans = DetectSentences("It grew 3.5 percent. Good.");
  ASSERT_EQ(spans.size(), 2u);
}

TEST(SentenceTest, SingleInitialDoesNotSplit) {
  auto spans = DetectSentences("John F. Kennedy spoke. Then left.");
  ASSERT_EQ(spans.size(), 2u);
}

TEST(ParagraphTest, BlankLineSplits) {
  auto spans = DetectParagraphs("para one line.\n\npara two line.");
  ASSERT_EQ(spans.size(), 2u);
}

TEST(ParagraphTest, SingleNewlineDoesNotSplit) {
  auto spans = DetectParagraphs("line one\nline two");
  ASSERT_EQ(spans.size(), 1u);
}

TEST(WindowTest, ShortDocSingleWindow) {
  auto w = PartitionIntoWindows(1000, 2500, 500);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].begin, 0u);
  EXPECT_EQ(w[0].end, 1000u);
}

TEST(WindowTest, PaperParameters) {
  // 2500-char windows with 500-char overlap => stride 2000.
  auto w = PartitionIntoWindows(6000, 2500, 500);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0].begin, 0u);
  EXPECT_EQ(w[0].end, 2500u);
  EXPECT_EQ(w[1].begin, 2000u);
  EXPECT_EQ(w[1].end, 4500u);
  EXPECT_EQ(w[2].begin, 4000u);
  EXPECT_EQ(w[2].end, 6000u);
}

TEST(WindowTest, ConsecutiveWindowsOverlap) {
  auto w = PartitionIntoWindows(10000, 2500, 500);
  for (size_t i = 1; i < w.size(); ++i) {
    EXPECT_EQ(w[i - 1].end - w[i].begin, 500u) << "at window " << i;
  }
  EXPECT_EQ(w.back().end, 10000u);
}

TEST(WindowTest, EmptyText) {
  EXPECT_TRUE(PartitionIntoWindows(0).empty());
}

TEST(TokenizeIntoTest, MatchesTokenizeAndReusesBuffer) {
  const std::vector<std::string> samples = {
      "",
      "The Quick (Brown) Fox's 42 jumps, over http://x.y!",
      "  leading   and trailing  ",
      "O'Neill's co-worker visited San Francisco-based start-ups.",
      "ALL CAPS and miXeD CaSe tokens 123abc",
  };
  std::vector<Token> reused;  // Deliberately reused across iterations.
  for (const std::string& text : samples) {
    TokenizeInto(text, &reused);
    EXPECT_EQ(reused, Tokenize(text)) << "text: " << text;
  }
  // A longer document followed by a shorter one must not leak stale slots.
  TokenizeInto("one two three four five six", &reused);
  TokenizeInto("tiny", &reused);
  EXPECT_EQ(reused, Tokenize("tiny"));
}

// The byte-class table must agree with <cctype> in the C locale on every
// byte value, and the tokenizer built on it must agree with one built on
// <cctype> over arbitrary bytes.
TEST(AsciiClassifierTest, AgreeWithCctypeOnEveryByte) {
  ASSERT_STREQ(std::setlocale(LC_CTYPE, nullptr), "C");
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const unsigned char u = static_cast<unsigned char>(b);
    EXPECT_EQ(HasClass(c, kByteSpace), std::isspace(u) != 0) << "byte " << b;
    EXPECT_EQ(HasClass(c, kBytePunct), std::ispunct(u) != 0) << "byte " << b;
    EXPECT_EQ(HasClass(c, kByteDigit), std::isdigit(u) != 0) << "byte " << b;
    EXPECT_EQ(HasClass(c, kByteAlpha), std::isalpha(u) != 0) << "byte " << b;
    EXPECT_EQ(AsciiToLower(c), static_cast<char>(std::tolower(u)))
        << "byte " << b;
  }
}

// The tokenizer as specified through <cctype>: split on isspace, strip
// surrounding ispunct, drop empties, tolower, strip a possessive "'s".
std::vector<Token> CctypeTokenize(std::string_view text) {
  auto space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  auto punct = [](char c) {
    return std::ispunct(static_cast<unsigned char>(c)) != 0;
  };
  std::vector<Token> out;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && space(text[i])) ++i;
    size_t b = i;
    while (i < text.size() && !space(text[i])) ++i;
    size_t e = i;
    while (b < e && punct(text[b])) ++b;
    while (e > b && punct(text[e - 1])) --e;
    if (b == e) continue;
    Token tok;
    for (size_t k = b; k < e; ++k) {
      const unsigned char u = static_cast<unsigned char>(text[k]);
      tok.text.push_back(static_cast<char>(std::tolower(u)));
    }
    if (tok.text.size() > 2 && tok.text.substr(tok.text.size() - 2) == "'s") {
      tok.text.resize(tok.text.size() - 2);
    }
    tok.hash = HashToken(tok.text);
    tok.begin = b;
    tok.end = e;
    out.push_back(std::move(tok));
  }
  return out;
}

TEST(TokenizeIntoTest, MatchesCctypeReferenceOnRandomBytes) {
  // Bytes that differ between "ASCII" and some locales, or sit at class
  // boundaries, are drawn often; the rest of the 256 values fill in.
  const std::string special =
      std::string("\t\n\v\f\r \x85\xA0\xFF\x80'sS") + std::string(1, '\0') +
      "!/:@[`{~09AZaz";
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    std::vector<Token> reused;
    for (int trial = 0; trial < 200; ++trial) {
      std::string text;
      const size_t len = rng.NextBounded(120);
      for (size_t i = 0; i < len; ++i) {
        text.push_back(rng.NextBounded(2) == 0
                           ? special[rng.NextBounded(special.size())]
                           : static_cast<char>(rng.NextBounded(256)));
      }
      TokenizeInto(text, &reused);
      ASSERT_EQ(reused, CctypeTokenize(text))
          << "seed " << seed << " trial " << trial;
    }
  }
}

TEST(PorterStemIntoTest, MatchesPorterStem) {
  std::string buf;  // Reused across calls like the runtime scratch does.
  for (const char* word :
       {"caresses", "ponies", "running", "a", "it", "xyz", "Mixed", "42",
        "relational", "internationalization", ""}) {
    PorterStemInto(word, &buf);
    EXPECT_EQ(buf, PorterStem(word)) << "word: " << word;
  }
}

TEST(WindowTest, CoverageProperty) {
  // Property: windows cover every byte for many sizes.
  for (size_t size : {1u, 499u, 2500u, 2501u, 4999u, 12345u}) {
    auto w = PartitionIntoWindows(size, 2500, 500);
    ASSERT_FALSE(w.empty());
    EXPECT_EQ(w.front().begin, 0u);
    EXPECT_EQ(w.back().end, size);
    for (size_t i = 1; i < w.size(); ++i) {
      EXPECT_LE(w[i].begin, w[i - 1].end) << "gap at " << i;
    }
  }
}

}  // namespace
}  // namespace ckr
