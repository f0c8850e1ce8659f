//===- StringUtils.cpp - String helpers -----------------------------------===//

#include "support/StringUtils.h"

#include <cstdarg>
#include <cstdio>

using namespace srp;

std::string srp::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Size = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Result(static_cast<size_t>(Size), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Result;
}

bool srp::startsWith(std::string_view Str, std::string_view Prefix) {
  return Str.size() >= Prefix.size() &&
         Str.substr(0, Prefix.size()) == Prefix;
}
