//===- OStream.cpp - Lightweight output stream ----------------------------===//

#include "support/OStream.h"

#include <cinttypes>
#include <cstring>

using namespace srp;

OStream::~OStream() = default;

OStream &OStream::operator<<(char C) {
  writeImpl(&C, 1);
  return *this;
}

OStream &OStream::operator<<(const char *Str) {
  writeImpl(Str, std::strlen(Str));
  return *this;
}

OStream &OStream::operator<<(std::string_view Str) {
  writeImpl(Str.data(), Str.size());
  return *this;
}

OStream &OStream::operator<<(const std::string &Str) {
  writeImpl(Str.data(), Str.size());
  return *this;
}

OStream &OStream::operator<<(int64_t N) {
  char Buf[32];
  int Len = std::snprintf(Buf, sizeof(Buf), "%" PRId64, N);
  writeImpl(Buf, static_cast<size_t>(Len));
  return *this;
}

OStream &OStream::operator<<(uint64_t N) {
  char Buf[32];
  int Len = std::snprintf(Buf, sizeof(Buf), "%" PRIu64, N);
  writeImpl(Buf, static_cast<size_t>(Len));
  return *this;
}

OStream &OStream::operator<<(double D) {
  char Buf[64];
  int Len = std::snprintf(Buf, sizeof(Buf), "%g", D);
  writeImpl(Buf, static_cast<size_t>(Len));
  return *this;
}

OStream &OStream::indent(unsigned N) {
  static const char Spaces[] = "                                ";
  while (N > 0) {
    unsigned Chunk = N < 32 ? N : 32;
    writeImpl(Spaces, Chunk);
    N -= Chunk;
  }
  return *this;
}

OStream &srp::outs() {
  static FileOStream Stream(stdout);
  return Stream;
}

OStream &srp::errs() {
  static FileOStream Stream(stderr);
  return Stream;
}
