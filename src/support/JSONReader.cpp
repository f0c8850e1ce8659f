//===- JSONReader.cpp - Strict JSON parser -------------------------------------===//

#include "support/JSONReader.h"

#include "support/StringUtils.h"

#include <cstdlib>

using namespace srp;

namespace srp {

/// Recursive-descent parser over a string_view. Position-tracking and
/// error reporting live here; JSONValue stays a plain tree.
class JSONParser {
public:
  JSONParser(std::string_view Text, std::string &Error)
      : Text(Text), Error(Error) {}

  bool parse(JSONValue &Out) {
    skipWhitespace();
    if (!parseValue(Out, /*Depth=*/0))
      return false;
    skipWhitespace();
    if (Pos != Text.size())
      return fail("trailing characters after the value");
    return true;
  }

private:
  static constexpr unsigned MaxDepth = 64;

  bool fail(const std::string &Message) {
    Error = "offset " + std::to_string(Pos) + ": " + Message;
    return false;
  }

  bool atEnd() const { return Pos >= Text.size(); }
  char peek() const { return Text[Pos]; }

  void skipWhitespace() {
    while (!atEnd() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                        peek() == '\r'))
      ++Pos;
  }

  bool consumeKeyword(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return fail("invalid value");
    Pos += Word.size();
    return true;
  }

  bool parseValue(JSONValue &Out, unsigned Depth) {
    if (Depth >= MaxDepth)
      return fail("nesting deeper than 64 levels");
    if (atEnd())
      return fail("expected a value");
    switch (peek()) {
    case '{':
      return parseObject(Out, Depth);
    case '[':
      return parseArray(Out, Depth);
    case '"':
      Out.K = JSONValue::Kind::String;
      return parseString(Out.S);
    case 't':
      Out.K = JSONValue::Kind::Bool;
      Out.B = true;
      return consumeKeyword("true");
    case 'f':
      Out.K = JSONValue::Kind::Bool;
      Out.B = false;
      return consumeKeyword("false");
    case 'n':
      Out.K = JSONValue::Kind::Null;
      return consumeKeyword("null");
    default:
      return parseNumber(Out);
    }
  }

  bool parseObject(JSONValue &Out, unsigned Depth) {
    Out.K = JSONValue::Kind::Object;
    ++Pos; // '{'
    skipWhitespace();
    if (!atEnd() && peek() == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWhitespace();
      if (atEnd() || peek() != '"')
        return fail("expected an object key");
      std::string Key;
      if (!parseString(Key))
        return false;
      if (Out.find(Key))
        return fail("duplicate key '" + Key + "'");
      skipWhitespace();
      if (atEnd() || peek() != ':')
        return fail("expected ':' after the key");
      ++Pos;
      skipWhitespace();
      JSONValue Member;
      if (!parseValue(Member, Depth + 1))
        return false;
      Out.Members.emplace_back(std::move(Key), std::move(Member));
      skipWhitespace();
      if (atEnd())
        return fail("unterminated object");
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == '}') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parseArray(JSONValue &Out, unsigned Depth) {
    Out.K = JSONValue::Kind::Array;
    ++Pos; // '['
    skipWhitespace();
    if (!atEnd() && peek() == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWhitespace();
      JSONValue Elem;
      if (!parseValue(Elem, Depth + 1))
        return false;
      Out.Elems.push_back(std::move(Elem));
      skipWhitespace();
      if (atEnd())
        return fail("unterminated array");
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == ']') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parseHex4(unsigned &Out) {
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      if (atEnd())
        return fail("unterminated \\u escape");
      char C = peek();
      unsigned Digit;
      if (C >= '0' && C <= '9')
        Digit = static_cast<unsigned>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Digit = static_cast<unsigned>(C - 'a') + 10;
      else if (C >= 'A' && C <= 'F')
        Digit = static_cast<unsigned>(C - 'A') + 10;
      else
        return fail("invalid \\u escape digit");
      Out = Out * 16 + Digit;
      ++Pos;
    }
    return true;
  }

  /// Appends \p Code as UTF-8. The writer only ever emits \uXXXX for
  /// control characters, but the reader accepts the full BMP (surrogate
  /// pairs are rejected — the protocol is ASCII-by-construction and a
  /// lone surrogate is the common fuzzer-found crash in lax parsers).
  bool appendCodepoint(unsigned Code, std::string &Out) {
    if (Code >= 0xd800 && Code <= 0xdfff)
      return fail("surrogate \\u escapes are not supported");
    if (Code < 0x80) {
      Out.push_back(static_cast<char>(Code));
    } else if (Code < 0x800) {
      Out.push_back(static_cast<char>(0xc0 | (Code >> 6)));
      Out.push_back(static_cast<char>(0x80 | (Code & 0x3f)));
    } else {
      Out.push_back(static_cast<char>(0xe0 | (Code >> 12)));
      Out.push_back(static_cast<char>(0x80 | ((Code >> 6) & 0x3f)));
      Out.push_back(static_cast<char>(0x80 | (Code & 0x3f)));
    }
    return true;
  }

  bool parseString(std::string &Out) {
    ++Pos; // '"'
    for (;;) {
      // Copy the run of plain characters up to the next quote, escape or
      // control character in one append.
      size_t Run = Pos;
      while (Run < Text.size() && Text[Run] != '"' && Text[Run] != '\\' &&
             static_cast<unsigned char>(Text[Run]) >= 0x20)
        ++Run;
      Out.append(Text.data() + Pos, Run - Pos);
      Pos = Run;
      if (atEnd())
        return fail("unterminated string");
      char C = peek();
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("raw control character in string");
      ++Pos;
      if (C == '"')
        return true;
      if (atEnd())
        return fail("unterminated escape");
      char E = peek();
      ++Pos;
      switch (E) {
      case '"':
        Out.push_back('"');
        break;
      case '\\':
        Out.push_back('\\');
        break;
      case '/':
        Out.push_back('/');
        break;
      case 'b':
        Out.push_back('\b');
        break;
      case 'f':
        Out.push_back('\f');
        break;
      case 'n':
        Out.push_back('\n');
        break;
      case 'r':
        Out.push_back('\r');
        break;
      case 't':
        Out.push_back('\t');
        break;
      case 'u': {
        unsigned Code;
        if (!parseHex4(Code) || !appendCodepoint(Code, Out))
          return false;
        break;
      }
      default:
        return fail("invalid escape");
      }
    }
  }

  bool parseNumber(JSONValue &Out) {
    size_t Start = Pos;
    bool Negative = false;
    if (!atEnd() && peek() == '-') {
      Negative = true;
      ++Pos;
    }
    if (atEnd() || peek() < '0' || peek() > '9')
      return fail("invalid number");
    // JSON forbids leading zeros ("01").
    if (peek() == '0' && Pos + 1 < Text.size() && Text[Pos + 1] >= '0' &&
        Text[Pos + 1] <= '9')
      return fail("leading zero in number");
    bool Integral = true;
    bool Overflow = false;
    uint64_t Magnitude = 0;
    while (!atEnd() && peek() >= '0' && peek() <= '9') {
      uint64_t Digit = static_cast<uint64_t>(peek() - '0');
      if (Magnitude > (UINT64_MAX - Digit) / 10)
        Overflow = true;
      else
        Magnitude = Magnitude * 10 + Digit;
      ++Pos;
    }
    if (!atEnd() && peek() == '.') {
      Integral = false;
      ++Pos;
      if (atEnd() || peek() < '0' || peek() > '9')
        return fail("digit expected after '.'");
      while (!atEnd() && peek() >= '0' && peek() <= '9')
        ++Pos;
    }
    if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
      Integral = false;
      ++Pos;
      if (!atEnd() && (peek() == '+' || peek() == '-'))
        ++Pos;
      if (atEnd() || peek() < '0' || peek() > '9')
        return fail("digit expected in exponent");
      while (!atEnd() && peek() >= '0' && peek() <= '9')
        ++Pos;
    }
    if (Integral && !Overflow && !Negative) {
      Out.K = JSONValue::Kind::Uint;
      Out.U = Magnitude;
      return true;
    }
    if (Integral && !Overflow && Negative &&
        Magnitude <= static_cast<uint64_t>(INT64_MAX) + 1) {
      Out.K = JSONValue::Kind::Int;
      Out.I = Magnitude == static_cast<uint64_t>(INT64_MAX) + 1
                  ? INT64_MIN
                  : -static_cast<int64_t>(Magnitude);
      return true;
    }
    Out.K = JSONValue::Kind::Double;
    std::string Token(Text.substr(Start, Pos - Start));
    Out.D = std::strtod(Token.c_str(), nullptr);
    return true;
  }

  std::string_view Text;
  std::string &Error;
  size_t Pos = 0;
};

} // namespace srp

bool srp::parseJSON(std::string_view Text, JSONValue &Out,
                    std::string &Error) {
  Out = JSONValue();
  JSONParser Parser(Text, Error);
  return Parser.parse(Out);
}
