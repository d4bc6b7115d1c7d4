#include "json.h"

#include <cstdlib>

namespace teambench {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool ParseDocument(Json* out, std::string* error) {
    if (!ParseValue(out, 0)) {
      *error = error_ + " at offset " + std::to_string(pos_);
      return false;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      *error = "trailing bytes at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Fail(const char* what) {
    error_ = what;
    return false;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return Fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool ParseValue(Json* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      out->type = Json::Type::kString;
      return ParseString(&out->string);
    }
    if (c == 't') {
      out->type = Json::Type::kBool;
      out->boolean = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->type = Json::Type::kBool;
      return Literal("false");
    }
    if (c == 'n') {
      out->type = Json::Type::kNull;
      return Literal("null");
    }
    return ParseNumber(out);
  }

  bool ParseNumber(Json* out) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           std::string_view("+-0123456789.eE").find(text_[pos_]) !=
               std::string_view::npos) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a value");
    const std::string digits(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out->type = Json::Type::kNumber;
    out->number = std::strtod(digits.c_str(), &end);
    if (end != digits.c_str() + digits.size()) return Fail("bad number");
    return true;
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("short \\u escape");
          const std::string hex(text_.substr(pos_, 4));
          char* end = nullptr;
          const unsigned long code = std::strtoul(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) return Fail("bad \\u escape");
          pos_ += 4;
          // Names in this system are byte strings; the server escapes only
          // control bytes this way, so one byte per escape is exact.
          if (code > 0xff) return Fail("\\u escape above 0xff");
          out->push_back(static_cast<char>(code));
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseArray(Json* out, int depth) {
    out->type = Json::Type::kArray;
    ++pos_;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      out->array.emplace_back();
      if (!ParseValue(&out->array.back(), depth + 1)) return false;
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected , or ]");
    }
  }

  bool ParseObject(Json* out, int depth) {
    out->type = Json::Type::kObject;
    ++pos_;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected a member name");
      }
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return Fail("expected :");
      ++pos_;
      Json value;
      if (!ParseValue(&value, depth + 1)) return false;
      if (!out->object.emplace(std::move(key), std::move(value)).second) {
        return Fail("duplicate member name");
      }
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected , or }");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

const Json* Json::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

double Json::NumberOr(const std::string& key, double fallback) const {
  const Json* value = Find(key);
  return value != nullptr && value->type == Type::kNumber ? value->number
                                                          : fallback;
}

bool ParseJson(std::string_view text, Json* out, std::string* error) {
  *out = Json();
  return Parser(text).ParseDocument(out, error);
}

}  // namespace teambench
