#include "text/tokenizer.h"

#include "common/string_util.h"
#include "text/porter_stemmer.h"

namespace ckr {

void TokenizeInto(std::string_view text, std::vector<Token>* out) {
  size_t count = 0;  // Slots [0, count) of *out are live; the rest reuse
                     // their string capacity from earlier documents.
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    while (i < n && IsAsciiSpace(text[i])) ++i;
    if (i >= n) break;
    size_t start = i;
    while (i < n && !IsAsciiSpace(text[i])) ++i;
    const std::string_view piece =
        StripSurroundingPunct(text.substr(start, i - start));
    if (piece.empty()) continue;
    if (count == out->size()) out->emplace_back();
    Token& tok = (*out)[count++];
    tok.text.assign(piece);
    for (char& c : tok.text) c = AsciiToLower(c);
    // Possessive normalization: "obama's" matches the entity "obama" (the
    // offsets keep the full surface).
    if (tok.text.size() > 2 && EndsWith(tok.text, "'s")) {
      tok.text.resize(tok.text.size() - 2);
    }
    tok.begin = static_cast<size_t>(piece.data() - text.data());
    tok.end = tok.begin + piece.size();
  }
  out->resize(count);
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
