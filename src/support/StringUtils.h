//===- StringUtils.h - String helpers ---------------------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style string formatting and small string helpers shared by the IR
/// printer, the assembly printer, the command-line tools and the bench
/// harnesses.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_SUPPORT_STRINGUTILS_H
#define SRP_SUPPORT_STRINGUTILS_H

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>

namespace srp {

/// Returns the printf-style formatting of \p Fmt with the given arguments.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Returns true if \p Str begins with \p Prefix.
bool startsWith(std::string_view Str, std::string_view Prefix);

/// Parses all of \p Text as a number in \p Base that fits \p Out's type:
/// digits only, with no sign, space or base prefix. On failure (empty,
/// non-digit or out-of-range input) returns false and leaves \p Out
/// unchanged. Every tool parses its numeric options with this, so a typo
/// is an error instead of atoi's silent 0.
template <typename UInt>
bool parseUnsigned(std::string_view Text, UInt &Out, int Base = 10) {
  static_assert(std::is_unsigned_v<UInt>);
  const char *End = Text.data() + Text.size();
  UInt Value = 0;
  auto [Stop, Ec] = std::from_chars(Text.data(), End, Value, Base);
  if (Ec != std::errc() || Stop != End)
    return false;
  Out = Value;
  return true;
}

} // namespace srp

#endif // SRP_SUPPORT_STRINGUTILS_H
