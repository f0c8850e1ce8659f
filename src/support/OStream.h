//===- OStream.h - Lightweight output stream --------------------*- C++ -*-===//
//
// Part of the srp-alat project, reproducing "Speculative Register Promotion
// Using Advanced Load Address Table (ALAT)" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small raw_ostream-style output stream. The project avoids <iostream>
/// (static constructors, heavyweight formatting); this provides the subset
/// of formatted output the compiler, simulator and benches need.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_SUPPORT_OSTREAM_H
#define SRP_SUPPORT_OSTREAM_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace srp {

/// Abstract formatted output stream.
///
/// Concrete sinks override \c writeImpl. All operator<< overloads format
/// into a small stack buffer and forward to the sink.
class OStream {
public:
  virtual ~OStream();

  OStream &operator<<(char C);
  OStream &operator<<(const char *Str);
  OStream &operator<<(std::string_view Str);
  OStream &operator<<(const std::string &Str);
  OStream &operator<<(bool B) { return *this << (B ? "true" : "false"); }
  OStream &operator<<(int32_t N) { return *this << static_cast<int64_t>(N); }
  OStream &operator<<(uint32_t N) { return *this << static_cast<uint64_t>(N); }
  OStream &operator<<(int64_t N);
  OStream &operator<<(uint64_t N);
  OStream &operator<<(double D);

  /// Writes \p N spaces.
  OStream &indent(unsigned N);

  /// Flushes the underlying sink (no-op for string sinks).
  virtual void flush() {}

protected:
  virtual void writeImpl(const char *Ptr, size_t Size) = 0;
};

/// Stream that appends to a caller-owned std::string.
class StringOStream final : public OStream {
public:
  explicit StringOStream(std::string &Buffer) : Buffer(Buffer) {}

private:
  void writeImpl(const char *Ptr, size_t Size) override {
    Buffer.append(Ptr, Size);
  }

  std::string &Buffer;
};

/// Stream over a stdio FILE handle. Does not own the handle.
class FileOStream final : public OStream {
public:
  explicit FileOStream(std::FILE *Handle) : Handle(Handle) {}

  void flush() override { std::fflush(Handle); }

private:
  void writeImpl(const char *Ptr, size_t Size) override {
    std::fwrite(Ptr, 1, Size, Handle);
  }

  std::FILE *Handle;
};

/// Returns the stream bound to stdout.
OStream &outs();

/// Returns the stream bound to stderr.
OStream &errs();

} // namespace srp

#endif // SRP_SUPPORT_OSTREAM_H
